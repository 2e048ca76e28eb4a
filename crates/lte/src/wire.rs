//! Control-plane wire formats: S1AP-over-SCTP, GTPv2-C, Diameter and
//! OpenFlow messages, with byte-accurate on-the-wire sizes.
//!
//! Message *contents* are encoded as hand-written JSON ([`crate::json`]),
//! decodable by any receiving node; message *sizes* are fixed by a
//! per-message wire-size table calibrated to the paper's testbed
//! measurement (§4): one idle-release + re-establishment sequence costs
//! exactly **15 messages / 2914 bytes — SCTP 7 (1138), GTPv2 4 (352),
//! OpenFlow 4 (1424)**. Encoders pad (via the packet's virtual length) up
//! to the calibrated size, so byte accounting matches the OpenEPC testbed
//! while the payloads remain fully functional.
//!
//! The payload bytes are pinned by the tests below, not just their
//! meaning: a packet is `max(spec, headers + payload)` long, and messages
//! with long numbers (four-digit PDCP counters, long TEIDs and transaction
//! ids) go out a byte or two over their spec, which the goldens and byte
//! counters record. Fault rules also select messages by their quoted tags
//! (`"PSq"`).

use crate::ids::{Ebi, Imsi, Teid};
use crate::json;
use crate::qci::Qci;
use crate::tft::Tft;
use acacia_simnet::packet::{proto, Packet};
use bytes::Bytes;
use std::net::Ipv4Addr;

/// Well-known control-plane ports.
pub mod ports {
    /// GTP-C (GTPv2) UDP port.
    pub const GTPC: u16 = 2123;
    /// GTP-U UDP port.
    pub const GTPU: u16 = 2152;
    /// S1AP SCTP port.
    pub const S1AP: u16 = 36412;
    /// OpenFlow controller TCP port.
    pub const OPENFLOW: u16 = 6633;
    /// Diameter port.
    pub const DIAMETER: u16 = 3868;
    /// X2AP SCTP port (inter-eNB handover signalling).
    pub const X2AP: u16 = 36422;
}

/// Protocol family of a control message (for byte accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// S1AP carried over SCTP (eNB ↔ MME).
    S1apSctp,
    /// X2AP carried over SCTP (eNB ↔ eNB handover signalling).
    X2Sctp,
    /// GTPv2-C (MME ↔ GW-C).
    Gtpv2,
    /// OpenFlow (GW-C ↔ GW-U).
    OpenFlow,
    /// Diameter (Rx/Gx/S6a: MRS/PCRF/HSS signalling).
    Diameter,
    /// Radio-side RRC/NAS (UE ↔ eNB), not part of the §4 core counts.
    Rrc,
}

impl Protocol {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::S1apSctp => "SCTP",
            Protocol::X2Sctp => "X2AP",
            Protocol::Gtpv2 => "GTPv2",
            Protocol::OpenFlow => "OpenFlow",
            Protocol::Diameter => "Diameter",
            Protocol::Rrc => "RRC",
        }
    }
}

/// E-RAB parameters carried in setup messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ErabSetup {
    /// Bearer id.
    pub ebi: Ebi,
    /// QoS class.
    pub qci: Qci,
    /// GTP TEID the eNB must send uplink traffic to.
    pub gw_teid: Teid,
    /// Address of the (possibly local/MEC) SGW-U terminating the S1 bearer.
    pub gw_addr: Ipv4Addr,
    /// Uplink TFT to push to the UE (empty for the default bearer).
    pub tft: Tft,
}

/// A PCC rule passed from PCRF to the PCEF (paper step 2: "The PCRF
/// dynamically generates policy rules, which consist of service ID, QCI,
/// and flow information").
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRule {
    /// Application/service identifier.
    pub service_id: u32,
    /// UE address the rule applies to.
    pub ue_addr: Ipv4Addr,
    /// CI server address.
    pub server_addr: Ipv4Addr,
    /// Server port (0 = any).
    pub server_port: u16,
    /// QoS class for the dedicated bearer.
    pub qci: Qci,
    /// Install (true) or remove (false).
    pub install: bool,
}

/// Flow-match specification for OpenFlow rules on the GW-Us.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMatchSpec {
    /// Match on the GTP tunnel id of encapsulated traffic.
    pub teid: Option<Teid>,
    /// Match on the inner/outer destination address.
    pub dst: Option<Ipv4Addr>,
    /// Match on the inner/outer source address.
    pub src: Option<Ipv4Addr>,
}

/// Actions attached to an OpenFlow rule. Encap/decap transform the packet
/// in place (OVS logical-port style); `Output` is terminal. An action list
/// with no `Output` drops the packet.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowActionSpec {
    /// GTP-encapsulate toward `(peer, teid)`.
    GtpEncap {
        /// Remote tunnel endpoint.
        peer: Ipv4Addr,
        /// Tunnel id to stamp.
        teid: Teid,
    },
    /// GTP-decapsulate.
    GtpDecap,
    /// Stamp the packet's IP ToS byte (TFT-style QCI marking; a subsequent
    /// `GtpEncap` copies the inner ToS onto the outer header).
    SetTos {
        /// ToS byte to stamp (DSCP in the top six bits).
        tos: u8,
    },
    /// Send out of `port` (terminal).
    Output {
        /// Output port.
        port: usize,
    },
}

/// All control-plane messages exchanged in the reproduction.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    // ---- S1AP (eNB <-> MME), over SCTP ----
    /// Initial UE message carrying a NAS Attach Request.
    InitialUeAttach {
        /// Subscriber.
        imsi: Imsi,
    },
    /// Initial UE message carrying a NAS Service Request (idle → active).
    InitialUeServiceRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → eNB: set up the UE context and its E-RAB(s).
    InitialContextSetupRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearers to establish.
        erabs: Vec<ErabSetup>,
    },
    /// eNB → MME: context set up; reports eNB-side TEIDs.
    InitialContextSetupResponse {
        /// Subscriber.
        imsi: Imsi,
        /// (EBI, eNB TEID) pairs for the established bearers.
        enb_teids: Vec<(Ebi, Teid)>,
    },
    /// MME → eNB: NAS Service Accept / Attach Accept.
    DownlinkNasAccept {
        /// Subscriber.
        imsi: Imsi,
        /// UE IP address assigned by the PGW (attach only).
        ue_addr: Option<Ipv4Addr>,
    },
    /// MME → eNB: establish one dedicated E-RAB (paper step 3's Bearer
    /// Setup Request; carries the *local* SGW-U address).
    ErabSetupRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer parameters.
        erab: ErabSetup,
    },
    /// eNB → MME: dedicated E-RAB established.
    ErabSetupResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
        /// eNB-side TEID for downlink.
        enb_teid: Teid,
    },
    /// MME → eNB: release a dedicated E-RAB.
    ErabReleaseCommand {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// eNB → MME: E-RAB released.
    ErabReleaseResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// eNB → MME: UE has gone idle, please release.
    UeContextReleaseRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → eNB: release the UE context.
    UeContextReleaseCommand {
        /// Subscriber.
        imsi: Imsi,
    },
    /// eNB → MME: context released.
    UeContextReleaseComplete {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → eNB: page an idle UE (downlink data pending).
    Paging {
        /// Subscriber.
        imsi: Imsi,
    },
    /// Target eNB → MME after an X2 handover: the UE now terminates its
    /// S1 bearers here; switch the downlink path.
    PathSwitchRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Target eNB S1 address.
        enb_addr: Ipv4Addr,
        /// (EBI, target-eNB downlink TEID) for every switched bearer.
        erabs: Vec<(Ebi, Teid)>,
        /// Procedure transaction id: retransmissions reuse it, so the MME
        /// can answer duplicates from its ack cache instead of switching
        /// the path twice.
        txid: u32,
    },
    /// MME → target eNB: path switch complete; carries any updated uplink
    /// F-TEIDs the target must use from now on.
    PathSwitchRequestAck {
        /// Subscriber.
        imsi: Imsi,
        /// Updated bearer parameters (empty when nothing changed).
        erabs: Vec<ErabSetup>,
    },

    // ---- X2AP (eNB <-> eNB), over SCTP ----
    /// Source eNB → target eNB: prepare an incoming handover with the
    /// UE's current bearer set.
    X2HandoverRequest {
        /// Subscriber.
        imsi: Imsi,
        /// UE IP address (if already assigned).
        ue_addr: Option<Ipv4Addr>,
        /// Bearers to admit at the target.
        bearers: Vec<ErabSetup>,
        /// Procedure transaction id: a retransmitted request carries the
        /// same id and is re-acked with the already-admitted TEIDs.
        txid: u32,
    },
    /// Target eNB → source eNB: handover admitted; the returned TEIDs
    /// double as the X2 downlink-forwarding tunnel endpoints.
    X2HandoverRequestAck {
        /// Subscriber.
        imsi: Imsi,
        /// (EBI, target-eNB TEID) per admitted bearer.
        erabs: Vec<(Ebi, Teid)>,
        /// Echo of the request's transaction id — lets the source discard
        /// acks of an attempt it has already cancelled.
        txid: u32,
    },
    /// Source eNB → target eNB: abandon a prepared handover (the source's
    /// preparation guard — the TX2RELOCprep/overall analogue — expired
    /// without an ack). The target drops any admitted context.
    X2HandoverCancel {
        /// Subscriber.
        imsi: Imsi,
        /// Transaction id of the abandoned preparation.
        txid: u32,
    },
    /// Source eNB → target eNB: PDCP sequence-number status at the moment
    /// of handover (lossless-handover bookkeeping).
    X2SnStatusTransfer {
        /// Subscriber.
        imsi: Imsi,
        /// Next expected downlink PDCP SN.
        dl_count: u32,
        /// Next expected uplink PDCP SN.
        ul_count: u32,
    },
    /// Target eNB → source eNB: path switch done; release the old UE
    /// context and stop forwarding.
    X2UeContextRelease {
        /// Subscriber.
        imsi: Imsi,
    },

    // ---- GTPv2-C (MME <-> GW-C) ----
    /// MME → GW-C: create the default-bearer session.
    CreateSessionRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// GW-C → MME: session created.
    CreateSessionResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Address assigned to the UE.
        ue_addr: Ipv4Addr,
        /// SGW-U S1 uplink TEID + address for the default bearer.
        erab: ErabSetup,
    },
    /// GW-C → MME: network-initiated dedicated bearer (paper step 2/3).
    CreateBearerRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer parameters, F-TEID pointing at the **local** GW-U.
        erab: ErabSetup,
    },
    /// MME → GW-C: dedicated bearer outcome.
    CreateBearerResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
        /// eNB downlink TEID.
        enb_teid: Teid,
        /// eNB address.
        enb_addr: Ipv4Addr,
    },
    /// GW-C → MME (relayed): delete a dedicated bearer.
    DeleteBearerRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// MME → GW-C: bearer deleted.
    DeleteBearerResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Bearer id.
        ebi: Ebi,
    },
    /// MME → GW-C: flush every dedicated bearer of a subscriber whose
    /// radio context was released by a failure path (e.g. the
    /// path-switch fallback) without the per-bearer handshake — the
    /// radio side is already gone, so only the core flows need tearing
    /// down.
    DeleteBearerCommand {
        /// Subscriber.
        imsi: Imsi,
    },
    /// O&M / failure-detection plane → GW-C: a local GW-U died; flush
    /// every dedicated bearer anchored on it (the `DBc` stale-flow
    /// flush generalised to a whole switch). The dead switch's flow
    /// table died with it — and a restarted GW-U comes back empty — so
    /// no removal FlowMods are addressed to the failed GW-U itself.
    GwuFailureIndication {
        /// Data-plane address of the failed local GW-U.
        gwu_addr: Ipv4Addr,
    },
    /// MME → GW-C: UE idle; release S1-U downlink path.
    ReleaseAccessBearersRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// GW-C → MME: released.
    ReleaseAccessBearersResponse {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → GW-C: (re)attach the eNB leg after service request.
    ModifyBearerRequest {
        /// Subscriber.
        imsi: Imsi,
        /// eNB downlink TEID.
        enb_teid: Teid,
        /// eNB address.
        enb_addr: Ipv4Addr,
    },
    /// GW-C → MME: modified.
    ModifyBearerResponse {
        /// Subscriber.
        imsi: Imsi,
    },
    /// SGW-U → GW-C: downlink data arrived for a released bearer (the
    /// tunnel id identifies the session); triggers paging.
    DownlinkDataByTeid {
        /// S1 downlink TEID the packet carried.
        teid: Teid,
    },
    /// GW-C → MME: Downlink Data Notification for an idle subscriber.
    DownlinkDataNotification {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MME → GW-C after a path switch: re-anchor every bearer's S1 leg on
    /// the target eNB (a Modify Bearer carrying the full bearer list).
    BearerRelocationRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Target eNB S1 address.
        enb_addr: Ipv4Addr,
        /// (EBI, target-eNB downlink TEID) per bearer.
        enb_teids: Vec<(Ebi, Teid)>,
    },
    /// GW-C → MME: relocation outcome — re-anchored bearers keep their
    /// uplink F-TEIDs; bearers the target cell cannot serve (no local
    /// GW-U) are listed in `released`.
    BearerRelocationResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Updated bearer parameters for the target eNB (may be empty).
        erabs: Vec<ErabSetup>,
        /// Dedicated bearers torn down because the target has no MEC path.
        released: Vec<Ebi>,
    },

    // ---- Diameter (MRS/AF -> PCRF -> PCEF, MME -> HSS) ----
    /// Rx AAR: the MRS (an AF) requests resources for a CI flow.
    RxAuthRequest {
        /// Policy rule describing the flow.
        rule: PolicyRule,
    },
    /// Rx AAA: PCRF answer.
    RxAuthAnswer {
        /// Service the answer refers to.
        service_id: u32,
        /// Accepted?
        ok: bool,
    },
    /// Gx RAR: PCRF pushes a rule to the PCEF.
    GxReauthRequest {
        /// The rule.
        rule: PolicyRule,
    },
    /// Gx RAA: PCEF answer.
    GxReauthAnswer {
        /// Service the answer refers to.
        service_id: u32,
        /// Installed?
        ok: bool,
    },
    /// S6a Authentication-Information-Request (MME → HSS).
    S6aAuthInfoRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// S6a Authentication-Information-Answer (HSS → MME).
    S6aAuthInfoAnswer {
        /// Subscriber.
        imsi: Imsi,
        /// Is the subscriber known/authorized?
        ok: bool,
    },

    // ---- OpenFlow (GW-C -> GW-U) ----
    /// Install or remove a flow rule on a GW-U.
    FlowMod {
        /// Add (true) or delete (false).
        add: bool,
        /// Rule priority.
        priority: u16,
        /// Match spec.
        mtch: FlowMatchSpec,
        /// Actions.
        actions: Vec<FlowActionSpec>,
    },

    // ---- RRC/NAS over the radio (UE <-> eNB) ----
    /// NAS attach request (UE → eNB, piggybacked on RRC).
    RrcAttachRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// NAS service request (idle → active).
    RrcServiceRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// RRC Connection Reconfiguration: carries the new radio bearer id,
    /// QoS and **the uplink TFT** the modem will classify with (paper
    /// step 3).
    RrcReconfiguration {
        /// Bearer id.
        ebi: Ebi,
        /// QoS class.
        qci: Qci,
        /// Uplink TFT (empty = match-nothing for default bearer).
        tft: Tft,
        /// UE address (assigned at attach).
        ue_addr: Option<Ipv4Addr>,
    },
    /// RRC release (network told UE to go idle).
    RrcRelease {
        /// Subscriber.
        imsi: Imsi,
    },
    /// RRC-side removal of one dedicated bearer.
    RrcBearerRelease {
        /// Bearer to drop.
        ebi: Ebi,
    },
    /// Paging indication on the radio (PCH).
    RrcPaging {
        /// Subscriber being paged.
        imsi: Imsi,
    },
    /// UE → serving eNB: A3-event measurement report (a neighbour cell is
    /// offset-better than the serving cell). RSRP in centi-dBm keeps the
    /// wire format integer-exact.
    RrcMeasurementReport {
        /// Subscriber.
        imsi: Imsi,
        /// Serving-cell RSRP, centi-dBm.
        serving_rsrp_cdbm: i32,
        /// Radio address of the reported neighbour cell.
        target_radio: Ipv4Addr,
        /// Neighbour-cell RSRP, centi-dBm.
        target_rsrp_cdbm: i32,
    },
    /// Source eNB → UE: retune to the target cell (the RRC reconfiguration
    /// with `mobilityControlInfo`).
    RrcHandoverCommand {
        /// Subscriber.
        imsi: Imsi,
        /// Radio address of the target cell.
        target_radio: Ipv4Addr,
    },
    /// UE → target eNB: synchronized on the new cell (RRC reconfiguration
    /// complete).
    RrcHandoverConfirm {
        /// Subscriber.
        imsi: Imsi,
    },
    /// UE → eNB: the T304 analogue expired without downlink progress (the
    /// HandoverCommand or the post-handover path never materialised); the
    /// UE re-establishes on the cell it can still hear.
    RrcReestablishmentRequest {
        /// Subscriber.
        imsi: Imsi,
    },
    /// eNB → UE: re-establishment accepted; the UE resumes on this cell.
    RrcReestablishmentConfirm {
        /// Subscriber.
        imsi: Imsi,
    },
}

impl ControlMsg {
    /// Protocol family (decides transport and byte accounting bucket).
    pub fn protocol(&self) -> Protocol {
        use ControlMsg::*;
        match self {
            InitialUeAttach { .. }
            | InitialUeServiceRequest { .. }
            | InitialContextSetupRequest { .. }
            | InitialContextSetupResponse { .. }
            | DownlinkNasAccept { .. }
            | ErabSetupRequest { .. }
            | ErabSetupResponse { .. }
            | ErabReleaseCommand { .. }
            | ErabReleaseResponse { .. }
            | UeContextReleaseRequest { .. }
            | UeContextReleaseCommand { .. }
            | UeContextReleaseComplete { .. }
            | Paging { .. }
            | PathSwitchRequest { .. }
            | PathSwitchRequestAck { .. } => Protocol::S1apSctp,
            X2HandoverRequest { .. }
            | X2HandoverRequestAck { .. }
            | X2HandoverCancel { .. }
            | X2SnStatusTransfer { .. }
            | X2UeContextRelease { .. } => Protocol::X2Sctp,
            CreateSessionRequest { .. }
            | CreateSessionResponse { .. }
            | CreateBearerRequest { .. }
            | CreateBearerResponse { .. }
            | DeleteBearerRequest { .. }
            | DeleteBearerResponse { .. }
            | DeleteBearerCommand { .. }
            | GwuFailureIndication { .. }
            | ReleaseAccessBearersRequest { .. }
            | ReleaseAccessBearersResponse { .. }
            | ModifyBearerRequest { .. }
            | ModifyBearerResponse { .. }
            | DownlinkDataByTeid { .. }
            | DownlinkDataNotification { .. }
            | BearerRelocationRequest { .. }
            | BearerRelocationResponse { .. } => Protocol::Gtpv2,
            RxAuthRequest { .. }
            | RxAuthAnswer { .. }
            | GxReauthRequest { .. }
            | GxReauthAnswer { .. }
            | S6aAuthInfoRequest { .. }
            | S6aAuthInfoAnswer { .. } => Protocol::Diameter,
            FlowMod { .. } => Protocol::OpenFlow,
            RrcAttachRequest { .. }
            | RrcServiceRequest { .. }
            | RrcReconfiguration { .. }
            | RrcRelease { .. }
            | RrcBearerRelease { .. }
            | RrcPaging { .. }
            | RrcMeasurementReport { .. }
            | RrcHandoverCommand { .. }
            | RrcHandoverConfirm { .. }
            | RrcReestablishmentRequest { .. }
            | RrcReestablishmentConfirm { .. } => Protocol::Rrc,
        }
    }

    /// Short message name for logs.
    pub fn name(&self) -> &'static str {
        use ControlMsg::*;
        match self {
            InitialUeAttach { .. } => "InitialUE(Attach)",
            InitialUeServiceRequest { .. } => "InitialUE(ServiceRequest)",
            InitialContextSetupRequest { .. } => "InitialContextSetupRequest",
            InitialContextSetupResponse { .. } => "InitialContextSetupResponse",
            DownlinkNasAccept { .. } => "DownlinkNAS(Accept)",
            ErabSetupRequest { .. } => "E-RABSetupRequest",
            ErabSetupResponse { .. } => "E-RABSetupResponse",
            ErabReleaseCommand { .. } => "E-RABReleaseCommand",
            ErabReleaseResponse { .. } => "E-RABReleaseResponse",
            UeContextReleaseRequest { .. } => "UEContextReleaseRequest",
            UeContextReleaseCommand { .. } => "UEContextReleaseCommand",
            UeContextReleaseComplete { .. } => "UEContextReleaseComplete",
            Paging { .. } => "Paging",
            PathSwitchRequest { .. } => "PathSwitchRequest",
            PathSwitchRequestAck { .. } => "PathSwitchRequestAcknowledge",
            X2HandoverRequest { .. } => "X2HandoverRequest",
            X2HandoverRequestAck { .. } => "X2HandoverRequestAcknowledge",
            X2HandoverCancel { .. } => "X2HandoverCancel",
            X2SnStatusTransfer { .. } => "X2SnStatusTransfer",
            X2UeContextRelease { .. } => "X2UEContextRelease",
            CreateSessionRequest { .. } => "CreateSessionRequest",
            CreateSessionResponse { .. } => "CreateSessionResponse",
            CreateBearerRequest { .. } => "CreateBearerRequest",
            CreateBearerResponse { .. } => "CreateBearerResponse",
            DeleteBearerRequest { .. } => "DeleteBearerRequest",
            DeleteBearerResponse { .. } => "DeleteBearerResponse",
            DeleteBearerCommand { .. } => "DeleteBearerCommand",
            GwuFailureIndication { .. } => "GwuFailureIndication",
            ReleaseAccessBearersRequest { .. } => "ReleaseAccessBearersRequest",
            ReleaseAccessBearersResponse { .. } => "ReleaseAccessBearersResponse",
            ModifyBearerRequest { .. } => "ModifyBearerRequest",
            ModifyBearerResponse { .. } => "ModifyBearerResponse",
            DownlinkDataByTeid { .. } => "DownlinkDataNotification(TEID)",
            DownlinkDataNotification { .. } => "DownlinkDataNotification",
            BearerRelocationRequest { .. } => "BearerRelocationRequest",
            BearerRelocationResponse { .. } => "BearerRelocationResponse",
            RxAuthRequest { .. } => "Rx-AAR",
            RxAuthAnswer { .. } => "Rx-AAA",
            GxReauthRequest { .. } => "Gx-RAR",
            GxReauthAnswer { .. } => "Gx-RAA",
            S6aAuthInfoRequest { .. } => "S6a-AIR",
            S6aAuthInfoAnswer { .. } => "S6a-AIA",
            FlowMod { add: true, .. } => "FlowMod(add)",
            FlowMod { add: false, .. } => "FlowMod(del)",
            RrcAttachRequest { .. } => "RRC(AttachRequest)",
            RrcServiceRequest { .. } => "RRC(ServiceRequest)",
            RrcReconfiguration { .. } => "RRCConnectionReconfiguration",
            RrcRelease { .. } => "RRCConnectionRelease",
            RrcBearerRelease { .. } => "RRC(BearerRelease)",
            RrcPaging { .. } => "RRC(Paging)",
            RrcMeasurementReport { .. } => "RRC(MeasurementReport)",
            RrcHandoverCommand { .. } => "RRC(HandoverCommand)",
            RrcHandoverConfirm { .. } => "RRC(HandoverConfirm)",
            RrcReestablishmentRequest { .. } => "RRC(ReestablishmentRequest)",
            RrcReestablishmentConfirm { .. } => "RRC(ReestablishmentConfirm)",
        }
    }

    /// Calibrated total on-the-wire size (IP + transport + message) in
    /// bytes. The idle-release + re-establishment sequence sums to the
    /// paper's measured 2914 bytes; see module docs.
    pub fn wire_size_spec(&self) -> u32 {
        use ControlMsg::*;
        match self {
            // S1AP/SCTP — the §4 sequence uses the six marked (*) messages:
            InitialUeAttach { .. } => 140,
            InitialUeServiceRequest { .. } => 120,     // (*)
            InitialContextSetupRequest { .. } => 280,  // (*)
            InitialContextSetupResponse { .. } => 120, // (*)
            DownlinkNasAccept { .. } => 110,           // (*)
            ErabSetupRequest { .. } => 300,
            ErabSetupResponse { .. } => 130,
            ErabReleaseCommand { .. } => 120,
            ErabReleaseResponse { .. } => 110,
            UeContextReleaseRequest { .. } => 140,  // (*)
            UeContextReleaseCommand { .. } => 180,  // (*)
            UeContextReleaseComplete { .. } => 188, // (*)
            Paging { .. } => 110,
            PathSwitchRequest { .. } => 150,
            PathSwitchRequestAck { .. } => 260,
            // X2AP (handover preparation/execution, not in the §4 counts).
            X2HandoverRequest { .. } => 420,
            X2HandoverRequestAck { .. } => 120,
            X2HandoverCancel { .. } => 90,
            X2SnStatusTransfer { .. } => 110,
            X2UeContextRelease { .. } => 80,
            // GTPv2 — §4 sequence: Release pair + Modify pair = 352 bytes.
            CreateSessionRequest { .. } => 220,
            CreateSessionResponse { .. } => 260,
            CreateBearerRequest { .. } => 240,
            CreateBearerResponse { .. } => 130,
            DeleteBearerRequest { .. } => 95,
            DeleteBearerResponse { .. } => 90,
            DeleteBearerCommand { .. } => 85,
            GwuFailureIndication { .. } => 70,
            ReleaseAccessBearersRequest { .. } => 70, // (*)
            ReleaseAccessBearersResponse { .. } => 70, // (*)
            ModifyBearerRequest { .. } => 120,        // (*)
            ModifyBearerResponse { .. } => 92,        // (*)
            DownlinkDataByTeid { .. } => 66,
            DownlinkDataNotification { .. } => 70,
            BearerRelocationRequest { .. } => 120,
            BearerRelocationResponse { .. } => 240,
            // Diameter.
            RxAuthRequest { .. } => 320,
            RxAuthAnswer { .. } => 180,
            GxReauthRequest { .. } => 340,
            GxReauthAnswer { .. } => 190,
            S6aAuthInfoRequest { .. } => 230,
            S6aAuthInfoAnswer { .. } => 300,
            // OpenFlow — §4 sequence: 2 deletes + 2 adds = 1424 bytes.
            FlowMod { add, .. } => {
                if *add {
                    400 // (*)
                } else {
                    312 // (*)
                }
            }
            // RRC (radio side, not in the §4 core counts).
            RrcAttachRequest { .. } => 90,
            RrcServiceRequest { .. } => 70,
            RrcReconfiguration { .. } => 210,
            RrcRelease { .. } => 60,
            RrcBearerRelease { .. } => 70,
            RrcPaging { .. } => 60,
            RrcMeasurementReport { .. } => 140,
            RrcHandoverCommand { .. } => 96,
            RrcHandoverConfirm { .. } => 64,
            RrcReestablishmentRequest { .. } => 72,
            RrcReestablishmentConfirm { .. } => 88,
        }
    }

    /// Encode into a packet from `src` to `dst`, with transport chosen by
    /// protocol family and wire size padded to [`Self::wire_size_spec`].
    pub fn into_packet(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
        let (protocol, port) = match self.protocol() {
            Protocol::S1apSctp => (proto::SCTP, ports::S1AP),
            Protocol::X2Sctp => (proto::SCTP, ports::X2AP),
            Protocol::Gtpv2 => (proto::UDP, ports::GTPC),
            Protocol::OpenFlow => (proto::TCP, ports::OPENFLOW),
            Protocol::Diameter => (proto::TCP, ports::DIAMETER),
            Protocol::Rrc => (proto::UDP, ports::S1AP + 1),
        };
        self.pad_to_spec(Packet {
            src,
            dst,
            src_port: port,
            dst_port: port,
            protocol,
            tos: 0,
            payload: Bytes::from(json::encode(b"", self)),
            app_len: 0,
            id: 0,
            created: acacia_simnet::time::Instant::ZERO,
        })
    }

    /// Pad an unpadded packet carrying this message to
    /// `max(spec, natural size)`: unusually information-dense messages
    /// (e.g. a TFT with many filters) go out at their natural size.
    pub(crate) fn pad_to_spec(&self, mut pkt: Packet) -> Packet {
        pkt.app_len = self.wire_size_spec().saturating_sub(pkt.wire_size());
        pkt
    }

    /// Decode a control message from a packet payload.
    pub fn decode(payload: &[u8]) -> Option<ControlMsg> {
        json::decode(payload)
    }

    /// Decode from a packet.
    pub fn from_packet(pkt: &Packet) -> Option<ControlMsg> {
        Self::decode(&pkt.payload)
    }
}

crate::json_codec!(struct ErabSetup { ebi, qci, gw_teid, gw_addr, tft });
crate::json_codec!(struct PolicyRule { service_id, ue_addr, server_addr, server_port, qci, install });
crate::json_codec!(struct FlowMatchSpec { ; teid, dst, src });

crate::json_codec! {
    enum FlowActionSpec {
        GtpEncap = "GtpEncap" { peer, teid },
        GtpDecap = "GtpDecap",
        SetTos = "SetTos" { tos },
        Output = "Output" { port },
    }
}

crate::json_codec! {
    enum ControlMsg {
        InitialUeAttach = "IUA" { imsi },
        InitialUeServiceRequest = "IUS" { imsi },
        InitialContextSetupRequest = "ICSq" { imsi, erabs },
        InitialContextSetupResponse = "ICSp" { imsi, enb_teids },
        DownlinkNasAccept = "DNA" { imsi, ue_addr },
        ErabSetupRequest = "ESq" { imsi, erab },
        ErabSetupResponse = "ESp" { imsi, ebi, enb_teid },
        ErabReleaseCommand = "ERC" { imsi, ebi },
        ErabReleaseResponse = "ERR" { imsi, ebi },
        UeContextReleaseRequest = "UCRq" { imsi },
        UeContextReleaseCommand = "UCRc" { imsi },
        UeContextReleaseComplete = "UCRd" { imsi },
        Paging = "PAG" { imsi },
        PathSwitchRequest = "PSq" { imsi, enb_addr, erabs, txid as "tx" },
        PathSwitchRequestAck = "PSa" { imsi, erabs },
        X2HandoverRequest = "HOq" { imsi, ue_addr, bearers, txid as "tx" },
        X2HandoverRequestAck = "HOa" { imsi, erabs, txid as "tx" },
        X2HandoverCancel = "HOc" { imsi, txid as "tx" },
        X2SnStatusTransfer = "SNS" { imsi, dl_count, ul_count },
        X2UeContextRelease = "XUR" { imsi },
        CreateSessionRequest = "CSq" { imsi },
        CreateSessionResponse = "CSp" { imsi, ue_addr, erab },
        CreateBearerRequest = "CBq" { imsi, erab },
        CreateBearerResponse = "CBp" { imsi, ebi, enb_teid, enb_addr },
        DeleteBearerRequest = "DBq" { imsi, ebi },
        DeleteBearerResponse = "DBp" { imsi, ebi },
        DeleteBearerCommand = "DBc" { imsi },
        GwuFailureIndication = "GWUF" { gwu_addr },
        ReleaseAccessBearersRequest = "RABq" { imsi },
        ReleaseAccessBearersResponse = "RABp" { imsi },
        ModifyBearerRequest = "MBq" { imsi, enb_teid, enb_addr },
        ModifyBearerResponse = "MBp" { imsi },
        DownlinkDataByTeid = "DDNt" { teid },
        DownlinkDataNotification = "DDN" { imsi },
        BearerRelocationRequest = "BRq" { imsi, enb_addr, enb_teids },
        BearerRelocationResponse = "BRp" { imsi, erabs, released },
        RxAuthRequest = "RxQ" { rule },
        RxAuthAnswer = "RxA" { service_id, ok },
        GxReauthRequest = "GxQ" { rule },
        GxReauthAnswer = "GxA" { service_id, ok },
        S6aAuthInfoRequest = "AIR" { imsi },
        S6aAuthInfoAnswer = "AIA" { imsi, ok },
        FlowMod = "FM" { add, priority, mtch, actions },
        RrcAttachRequest = "RAq" { imsi },
        RrcServiceRequest = "RSq" { imsi },
        RrcReconfiguration = "RRc" { ebi, qci, tft, ue_addr },
        RrcRelease = "RRl" { imsi },
        RrcBearerRelease = "RBR" { ebi },
        RrcPaging = "RPG" { imsi },
        RrcMeasurementReport = "RMR" { imsi, serving_rsrp_cdbm, target_radio, target_rsrp_cdbm },
        RrcHandoverCommand = "RHC" { imsi, target_radio },
        RrcHandoverConfirm = "RHF" { imsi },
        RrcReestablishmentRequest = "REq" { imsi },
        RrcReestablishmentConfirm = "REc" { imsi },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi() -> Imsi {
        Imsi(310_410_000_000_001)
    }

    fn sample_messages() -> Vec<ControlMsg> {
        use ControlMsg::*;
        let erab = ErabSetup {
            ebi: Ebi(6),
            qci: Qci(7),
            gw_teid: Teid(0x2001),
            gw_addr: Ipv4Addr::new(10, 2, 1, 1),
            tft: Tft::single(crate::tft::PacketFilter::to_host(Ipv4Addr::new(
                10, 4, 0, 1,
            ))),
        };
        vec![
            InitialUeAttach { imsi: imsi() },
            InitialUeServiceRequest { imsi: imsi() },
            InitialContextSetupRequest {
                imsi: imsi(),
                erabs: vec![erab.clone()],
            },
            InitialContextSetupResponse {
                imsi: imsi(),
                enb_teids: vec![(Ebi(5), Teid(0x3001))],
            },
            DownlinkNasAccept {
                imsi: imsi(),
                ue_addr: Some(Ipv4Addr::new(10, 10, 0, 1)),
            },
            ErabSetupRequest {
                imsi: imsi(),
                erab: erab.clone(),
            },
            ErabSetupResponse {
                imsi: imsi(),
                ebi: Ebi(6),
                enb_teid: Teid(0x3002),
            },
            UeContextReleaseRequest { imsi: imsi() },
            UeContextReleaseCommand { imsi: imsi() },
            UeContextReleaseComplete { imsi: imsi() },
            CreateSessionRequest { imsi: imsi() },
            CreateBearerRequest {
                imsi: imsi(),
                erab: erab.clone(),
            },
            ReleaseAccessBearersRequest { imsi: imsi() },
            ReleaseAccessBearersResponse { imsi: imsi() },
            ModifyBearerRequest {
                imsi: imsi(),
                enb_teid: Teid(0x3001),
                enb_addr: Ipv4Addr::new(10, 1, 0, 1),
            },
            ModifyBearerResponse { imsi: imsi() },
            RxAuthRequest {
                rule: PolicyRule {
                    service_id: 7,
                    ue_addr: Ipv4Addr::new(10, 10, 0, 1),
                    server_addr: Ipv4Addr::new(10, 4, 0, 1),
                    server_port: 9000,
                    qci: Qci(7),
                    install: true,
                },
            },
            FlowMod {
                add: true,
                priority: 100,
                mtch: FlowMatchSpec {
                    teid: Some(Teid(0x2001)),
                    dst: None,
                    src: None,
                },
                actions: vec![FlowActionSpec::GtpDecap, FlowActionSpec::Output { port: 2 }],
            },
            RrcReconfiguration {
                ebi: Ebi(6),
                qci: Qci(7),
                tft: erab.tft.clone(),
                ue_addr: None,
            },
            PathSwitchRequest {
                imsi: imsi(),
                enb_addr: Ipv4Addr::new(10, 1, 0, 2),
                erabs: vec![(Ebi(5), Teid(0x3005)), (Ebi(6), Teid(0x3006))],
                txid: 3,
            },
            PathSwitchRequestAck {
                imsi: imsi(),
                erabs: vec![erab.clone()],
            },
            X2HandoverRequest {
                imsi: imsi(),
                ue_addr: Some(Ipv4Addr::new(10, 10, 0, 1)),
                bearers: vec![erab.clone()],
                txid: 7,
            },
            X2HandoverRequestAck {
                imsi: imsi(),
                erabs: vec![(Ebi(5), Teid(0x3005)), (Ebi(6), Teid(0x3006))],
                txid: 7,
            },
            X2HandoverCancel {
                imsi: imsi(),
                txid: 7,
            },
            X2SnStatusTransfer {
                imsi: imsi(),
                dl_count: 421,
                ul_count: 197,
            },
            X2UeContextRelease { imsi: imsi() },
            BearerRelocationRequest {
                imsi: imsi(),
                enb_addr: Ipv4Addr::new(10, 1, 0, 2),
                enb_teids: vec![(Ebi(5), Teid(0x3005)), (Ebi(6), Teid(0x3006))],
            },
            BearerRelocationResponse {
                imsi: imsi(),
                erabs: vec![erab.clone()],
                released: vec![Ebi(6)],
            },
            RrcMeasurementReport {
                imsi: imsi(),
                serving_rsrp_cdbm: -9810,
                target_radio: Ipv4Addr::new(192, 168, 0, 2),
                target_rsrp_cdbm: -9120,
            },
            RrcHandoverCommand {
                imsi: imsi(),
                target_radio: Ipv4Addr::new(192, 168, 0, 2),
            },
            RrcHandoverConfirm { imsi: imsi() },
            RrcReestablishmentRequest { imsi: imsi() },
            RrcReestablishmentConfirm { imsi: imsi() },
        ]
    }

    /// One payload per variant, byte for byte, as recorded from the serde
    /// derive this codec replaced: `sample_messages()` first, then the
    /// variants and field shapes it leaves out.
    const PAYLOADS: [&str; 56] = [
        r#"{"IUA":{"imsi":310410000000001}}"#,
        r#"{"IUS":{"imsi":310410000000001}}"#,
        r#"{"ICSq":{"imsi":310410000000001,"erabs":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}]}}"#,
        r#"{"ICSp":{"imsi":310410000000001,"enb_teids":[[5,12289]]}}"#,
        r#"{"DNA":{"imsi":310410000000001,"ue_addr":"10.10.0.1"}}"#,
        r#"{"ESq":{"imsi":310410000000001,"erab":{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}}}"#,
        r#"{"ESp":{"imsi":310410000000001,"ebi":6,"enb_teid":12290}}"#,
        r#"{"UCRq":{"imsi":310410000000001}}"#,
        r#"{"UCRc":{"imsi":310410000000001}}"#,
        r#"{"UCRd":{"imsi":310410000000001}}"#,
        r#"{"CSq":{"imsi":310410000000001}}"#,
        r#"{"CBq":{"imsi":310410000000001,"erab":{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}}}"#,
        r#"{"RABq":{"imsi":310410000000001}}"#,
        r#"{"RABp":{"imsi":310410000000001}}"#,
        r#"{"MBq":{"imsi":310410000000001,"enb_teid":12289,"enb_addr":"10.1.0.1"}}"#,
        r#"{"MBp":{"imsi":310410000000001}}"#,
        r#"{"RxQ":{"rule":{"service_id":7,"ue_addr":"10.10.0.1","server_addr":"10.4.0.1","server_port":9000,"qci":7,"install":true}}}"#,
        r#"{"FM":{"add":true,"priority":100,"mtch":{"teid":8193},"actions":["GtpDecap",{"Output":{"port":2}}]}}"#,
        r#"{"RRc":{"ebi":6,"qci":7,"tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]},"ue_addr":null}}"#,
        r#"{"PSq":{"imsi":310410000000001,"enb_addr":"10.1.0.2","erabs":[[5,12293],[6,12294]],"tx":3}}"#,
        r#"{"PSa":{"imsi":310410000000001,"erabs":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}]}}"#,
        r#"{"HOq":{"imsi":310410000000001,"ue_addr":"10.10.0.1","bearers":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}],"tx":7}}"#,
        r#"{"HOa":{"imsi":310410000000001,"erabs":[[5,12293],[6,12294]],"tx":7}}"#,
        r#"{"HOc":{"imsi":310410000000001,"tx":7}}"#,
        r#"{"SNS":{"imsi":310410000000001,"dl_count":421,"ul_count":197}}"#,
        r#"{"XUR":{"imsi":310410000000001}}"#,
        r#"{"BRq":{"imsi":310410000000001,"enb_addr":"10.1.0.2","enb_teids":[[5,12293],[6,12294]]}}"#,
        r#"{"BRp":{"imsi":310410000000001,"erabs":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}],"released":[6]}}"#,
        r#"{"RMR":{"imsi":310410000000001,"serving_rsrp_cdbm":-9810,"target_radio":"192.168.0.2","target_rsrp_cdbm":-9120}}"#,
        r#"{"RHC":{"imsi":310410000000001,"target_radio":"192.168.0.2"}}"#,
        r#"{"RHF":{"imsi":310410000000001}}"#,
        r#"{"REq":{"imsi":310410000000001}}"#,
        r#"{"REc":{"imsi":310410000000001}}"#,
        r#"{"ERC":{"imsi":310410000000001,"ebi":6}}"#,
        r#"{"ERR":{"imsi":310410000000001,"ebi":6}}"#,
        r#"{"PAG":{"imsi":310410000000001}}"#,
        r#"{"CSp":{"imsi":310410000000001,"ue_addr":"10.10.0.1","erab":{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}}}"#,
        r#"{"CBp":{"imsi":310410000000001,"ebi":6,"enb_teid":12290,"enb_addr":"10.1.0.1"}}"#,
        r#"{"DBq":{"imsi":310410000000001,"ebi":6}}"#,
        r#"{"DBp":{"imsi":310410000000001,"ebi":6}}"#,
        r#"{"DBc":{"imsi":310410000000001}}"#,
        r#"{"GWUF":{"gwu_addr":"10.2.1.1"}}"#,
        r#"{"DDNt":{"teid":12289}}"#,
        r#"{"DDN":{"imsi":310410000000001}}"#,
        r#"{"RxA":{"service_id":7,"ok":true}}"#,
        r#"{"GxQ":{"rule":{"service_id":7,"ue_addr":"10.10.0.1","server_addr":"10.4.0.1","server_port":9000,"qci":7,"install":true}}}"#,
        r#"{"GxA":{"service_id":7,"ok":false}}"#,
        r#"{"AIR":{"imsi":310410000000001}}"#,
        r#"{"AIA":{"imsi":310410000000001,"ok":true}}"#,
        r#"{"FM":{"add":false,"priority":200,"mtch":{"dst":"10.10.0.1","src":"10.4.0.1"},"actions":[{"SetTos":{"tos":28}},{"GtpEncap":{"peer":"10.1.0.1","teid":12289}}]}}"#,
        r#"{"RAq":{"imsi":310410000000001}}"#,
        r#"{"RSq":{"imsi":310410000000001}}"#,
        r#"{"RRc":{"ebi":6,"qci":7,"tft":{"f":[{"p":0,"d":"U","a":["10.4.0.1",32],"r":[9000,9000],"x":17}]},"ue_addr":"10.10.0.1"}}"#,
        r#"{"RRl":{"imsi":310410000000001}}"#,
        r#"{"RBR":{"ebi":6}}"#,
        r#"{"RPG":{"imsi":310410000000001}}"#,
    ];

    fn encode(msg: &ControlMsg) -> Packet {
        msg.into_packet(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 3, 0, 1))
    }

    #[test]
    fn encode_decode_roundtrip() {
        for msg in sample_messages() {
            assert_eq!(ControlMsg::from_packet(&encode(&msg)).as_ref(), Some(&msg));
        }
    }

    #[test]
    fn payloads_are_pinned() {
        let samples = sample_messages();
        let mut variants = std::collections::HashSet::new();
        for (i, text) in PAYLOADS.into_iter().enumerate() {
            let msg = ControlMsg::decode(text.as_bytes()).expect(text);
            assert!(i >= samples.len() || samples[i] == msg, "{text}");
            assert_eq!(std::str::from_utf8(&encode(&msg).payload), Ok(text));
            let frame = crate::radio::rrc_frame(&msg, Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST);
            assert_eq!(frame.payload[..], [&[2], text.as_bytes()].concat());
            variants.insert(std::mem::discriminant(&msg));
        }
        assert_eq!(variants.len(), 54, "every variant is pinned");
    }

    #[test]
    fn wire_sizes_match_spec_exactly() {
        for text in PAYLOADS {
            let msg = ControlMsg::decode(text.as_bytes()).unwrap();
            assert_eq!(encode(&msg).wire_size(), msg.wire_size_spec(), "{text}");
        }
    }

    /// Long numbers push these two past their spec, and they go out at
    /// their natural size: the goldens count these bytes.
    #[test]
    fn overflowing_messages_keep_their_size() {
        for (text, size) in [
            (
                r#"{"SNS":{"imsi":310410000000001,"dl_count":1234,"ul_count":9876}}"#,
                112,
            ),
            (
                r#"{"HOa":{"imsi":310410000000001,"erabs":[[5,70001],[6,70002]],"tx":10000}}"#,
                121,
            ),
        ] {
            let msg = ControlMsg::decode(text.as_bytes()).unwrap();
            let pkt = encode(&msg);
            assert_eq!((&pkt.payload[..], pkt.wire_size()), (text.as_bytes(), size));
            assert!(size > msg.wire_size_spec());
            // A radio frame has a smaller header and stays at its spec.
            let frame = crate::radio::rrc_frame(&msg, Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST);
            assert_eq!(frame.wire_size(), msg.wire_size_spec());
        }
    }

    #[test]
    fn section4_sequence_totals() {
        // The exact §4 release + re-establish sequence: 15 messages,
        // 2914 bytes split SCTP 7/1138, GTPv2 4/352, OpenFlow 4/1424.
        use ControlMsg::*;
        let del = |_: u32| FlowMod {
            add: false,
            priority: 100,
            mtch: FlowMatchSpec {
                teid: Some(Teid(1)),
                dst: None,
                src: None,
            },
            actions: vec![],
        };
        let add = |_: u32| FlowMod {
            add: true,
            priority: 100,
            mtch: FlowMatchSpec {
                teid: Some(Teid(1)),
                dst: None,
                src: None,
            },
            actions: vec![
                FlowActionSpec::GtpEncap {
                    peer: Ipv4Addr::new(10, 1, 0, 1),
                    teid: Teid(2),
                },
                FlowActionSpec::Output { port: 1 },
            ],
        };
        let seq: Vec<ControlMsg> = vec![
            // Release.
            UeContextReleaseRequest { imsi: imsi() },
            ReleaseAccessBearersRequest { imsi: imsi() },
            ReleaseAccessBearersResponse { imsi: imsi() },
            UeContextReleaseCommand { imsi: imsi() },
            UeContextReleaseComplete { imsi: imsi() },
            del(1),
            del(2),
            // Re-establish.
            InitialUeServiceRequest { imsi: imsi() },
            InitialContextSetupRequest {
                imsi: imsi(),
                erabs: vec![],
            },
            InitialContextSetupResponse {
                imsi: imsi(),
                enb_teids: vec![(Ebi(5), Teid(0x3001))],
            },
            DownlinkNasAccept {
                imsi: imsi(),
                ue_addr: None,
            },
            ModifyBearerRequest {
                imsi: imsi(),
                enb_teid: Teid(0x3001),
                enb_addr: Ipv4Addr::new(10, 1, 0, 1),
            },
            ModifyBearerResponse { imsi: imsi() },
            add(1),
            add(2),
        ];
        assert_eq!(seq.len(), 15);
        let mut by_proto: std::collections::HashMap<&'static str, (u32, u32)> = Default::default();
        for m in &seq {
            let e = by_proto.entry(m.protocol().name()).or_default();
            e.0 += 1;
            e.1 += m.wire_size_spec();
        }
        assert_eq!(by_proto["SCTP"], (7, 1138));
        assert_eq!(by_proto["GTPv2"], (4, 352));
        assert_eq!(by_proto["OpenFlow"], (4, 1424));
        let total: u32 = seq.iter().map(|m| m.wire_size_spec()).sum();
        assert_eq!(total, 2914);
    }

    #[test]
    fn protocol_families_use_expected_transports() {
        let m = ControlMsg::UeContextReleaseRequest { imsi: imsi() };
        let p = m.into_packet(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 3, 0, 1));
        assert_eq!(p.protocol, proto::SCTP);
        assert_eq!(p.dst_port, ports::S1AP);

        let m = ControlMsg::ModifyBearerResponse { imsi: imsi() };
        let p = m.into_packet(Ipv4Addr::new(10, 3, 0, 2), Ipv4Addr::new(10, 3, 0, 1));
        assert_eq!(p.protocol, proto::UDP);
        assert_eq!(p.dst_port, ports::GTPC);

        let m = ControlMsg::FlowMod {
            add: true,
            priority: 1,
            mtch: FlowMatchSpec {
                teid: None,
                dst: None,
                src: None,
            },
            actions: vec![],
        };
        let p = m.into_packet(Ipv4Addr::new(10, 3, 0, 2), Ipv4Addr::new(10, 2, 0, 1));
        assert_eq!(p.protocol, proto::TCP);
        assert_eq!(p.dst_port, ports::OPENFLOW);

        let m = ControlMsg::X2UeContextRelease { imsi: imsi() };
        let p = m.into_packet(Ipv4Addr::new(10, 1, 0, 2), Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(p.protocol, proto::SCTP);
        assert_eq!(p.dst_port, ports::X2AP);
    }
}
