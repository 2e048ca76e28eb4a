//! Control-plane wire formats: S1AP-over-SCTP, GTPv2-C, Diameter and
//! OpenFlow messages, with byte-accurate on-the-wire sizes. Each message
//! is declared once, as one row of the `catalogue!` below that carries its
//! JSON tag, protocol family, log name, calibrated wire size and fields.
//!
//! A message travels typed ([`Payload::typed`]): the receiver downcasts the
//! value the sender built, and nothing is encoded on the way. What reaches
//! the wire is the length of the message's hand-written JSON
//! ([`crate::json`]), which [`crate::json::encoded_len`] counts without
//! writing it; the text itself is written only where bytes are wanted
//! ([`crate::json::encode`], and [`ControlMsg::decode`] reads it back).
//! Message *sizes* are the catalogue's, calibrated to the paper's testbed
//! measurement (§4): one idle-release + re-establishment sequence costs
//! exactly **15 messages / 2914 bytes — SCTP 7 (1138), GTPv2 4 (352),
//! OpenFlow 4 (1424)**. Encoders pad (via the packet's virtual length) up
//! to the calibrated size, so byte accounting matches the OpenEPC testbed
//! while the messages remain fully functional.
//!
//! The JSON bytes are pinned by the tests below, not just their meaning: a
//! packet is `max(spec, headers + JSON length)` long, and messages with
//! long numbers (four-digit PDCP counters, long TEIDs and transaction ids)
//! go out a byte or two over their spec, which the goldens and byte
//! counters record. Fault rules select messages by their tag (`PSq`), the
//! key that opens their JSON.

use crate::ids::{Ebi, Imsi, Teid};
use crate::json;
use crate::qci::Qci;
use crate::tft::Tft;
use acacia_simnet::packet::{proto, Message, Packet, Payload};
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

/// Declares every control message once. A row is `Variant = "tag"
/// (Protocol, "log name", wire size) { fields }`, and a field is `name:
/// Type`, or `name as "key": Type` to rename its JSON key. From the rows
/// come the enum, its [`json_codec!`](crate::json_codec) and [`KINDS`],
/// which `protocol()`, `name()` and `wire_size_spec()` read. After the enum
/// comes the one kind a field picks, `Variant { pattern } => Kind (row)`:
/// it is numbered after every variant and matched before them.
macro_rules! catalogue {
    (
        $(#[$attr:meta])*
        pub enum ControlMsg {
            $(
                $(#[$vattr:meta])*
                $V:ident = $tag:literal ($proto:ident, $name:literal, $spec:literal) {
                    $($(#[$fattr:meta])* $f:ident $(as $k:literal)?: $T:ty),* $(,)?
                }
            ),* $(,)?
        }
        $XV:ident { $($xp:tt)* } => $X:ident ($xproto:ident, $xname:literal, $xspec:literal) $(,)?
    ) => {
        $(#[$attr])*
        pub enum ControlMsg {
            $($(#[$vattr])* $V { $($(#[$fattr])* $f: $T),* },)*
        }

        /// One unit variant per message kind, in catalogue order.
        enum Kind { $($V,)* $X }

        /// Every variant's tag, in catalogue order: the tags a fault rule
        /// can name ([`Message::tag`]).
        pub const TAGS: [&str; KIND_COUNT - 1] = [$($tag,)*];

        /// One kind per variant, plus the one a field picks.
        pub(crate) const KIND_COUNT: usize = Kind::$X as usize + 1;

        /// Protocol family, log name and calibrated wire size, by kind.
        pub(crate) const KINDS: [(Protocol, &str, u32); KIND_COUNT] = [
            $((Protocol::$proto, $name, $spec),)*
            (Protocol::$xproto, $xname, $xspec),
        ];

        impl ControlMsg {
            /// This message's kind: its row in [`KINDS`].
            pub(crate) fn kind(&self) -> usize {
                match self {
                    ControlMsg::$XV { $($xp)* } => Kind::$X as usize,
                    $(ControlMsg::$V { .. } => Kind::$V as usize,)*
                }
            }
        }

        impl Message for ControlMsg {
            fn encoded_len(&self) -> u32 {
                json::encoded_len(self) as u32
            }

            /// The variant's JSON tag, the key its encoding opens with.
            fn tag(&self) -> Option<&'static str> {
                Some(match self {
                    $(ControlMsg::$V { .. } => $tag,)*
                })
            }
        }

        crate::json_codec! {
            enum ControlMsg { $($V = $tag { $($f $(as $k)?),* }),* }
        }
    };
}

catalogue! {
    /// All control-plane messages exchanged in the reproduction.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ControlMsg {
        // ---- S1AP (eNB <-> MME), over SCTP; §4: the seven (*), 1138 B ----
        /// Initial UE message carrying a NAS Attach Request.
        InitialUeAttach = "IUA" (S1apSctp, "InitialUE(Attach)", 140) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// Initial UE message carrying a NAS Service Request (idle → active).
        InitialUeServiceRequest = "IUS" (S1apSctp, "InitialUE(ServiceRequest)", 120) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// MME → eNB: set up the UE context and its E-RAB(s).
        InitialContextSetupRequest = "ICSq" (S1apSctp, "InitialContextSetupRequest", 280) { // (*)
            /// Subscriber.
            imsi: Imsi,
            /// Bearers to establish.
            erabs: Vec<ErabSetup>,
        },
        /// eNB → MME: context set up; reports eNB-side TEIDs.
        InitialContextSetupResponse = "ICSp" (S1apSctp, "InitialContextSetupResponse", 120) { // (*)
            /// Subscriber.
            imsi: Imsi,
            /// (EBI, eNB TEID) pairs for the established bearers.
            enb_teids: Vec<(Ebi, Teid)>,
        },
        /// MME → eNB: NAS Service Accept / Attach Accept.
        DownlinkNasAccept = "DNA" (S1apSctp, "DownlinkNAS(Accept)", 110) { // (*)
            /// Subscriber.
            imsi: Imsi,
            /// UE IP address assigned by the PGW (attach only).
            ue_addr: Option<Ipv4Addr>,
        },
        /// MME → eNB: establish one dedicated E-RAB (paper step 3's Bearer
        /// Setup Request; carries the *local* SGW-U address).
        ErabSetupRequest = "ESq" (S1apSctp, "E-RABSetupRequest", 300) {
            /// Subscriber.
            imsi: Imsi,
            /// Bearer parameters.
            erab: ErabSetup,
        },
        /// eNB → MME: dedicated E-RAB established.
        ErabSetupResponse = "ESp" (S1apSctp, "E-RABSetupResponse", 130) {
            /// Subscriber.
            imsi: Imsi,
            /// Bearer id.
            ebi: Ebi,
            /// eNB-side TEID for downlink.
            enb_teid: Teid,
        },
        /// MME → eNB: release a dedicated E-RAB.
        ErabReleaseCommand = "ERC" (S1apSctp, "E-RABReleaseCommand", 120) {
            /// Subscriber.
            imsi: Imsi,
            /// Bearer id.
            ebi: Ebi,
        },
        /// eNB → MME: E-RAB released.
        ErabReleaseResponse = "ERR" (S1apSctp, "E-RABReleaseResponse", 110) {
            /// Subscriber.
            imsi: Imsi,
            /// Bearer id.
            ebi: Ebi,
        },
        /// eNB → MME: UE has gone idle, please release.
        UeContextReleaseRequest = "UCRq" (S1apSctp, "UEContextReleaseRequest", 140) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// MME → eNB: release the UE context.
        UeContextReleaseCommand = "UCRc" (S1apSctp, "UEContextReleaseCommand", 180) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// eNB → MME: context released.
        UeContextReleaseComplete = "UCRd" (S1apSctp, "UEContextReleaseComplete", 188) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// MME → eNB: page an idle UE (downlink data pending).
        Paging = "PAG" (S1apSctp, "Paging", 110) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// Target eNB → MME after an X2 handover: the UE now terminates its
        /// S1 bearers here; switch the downlink path.
        PathSwitchRequest = "PSq" (S1apSctp, "PathSwitchRequest", 150) {
            /// Subscriber.
            imsi: Imsi,
            /// Target eNB S1 address.
            enb_addr: Ipv4Addr,
            /// (EBI, target-eNB downlink TEID) for every switched bearer.
            erabs: Vec<(Ebi, Teid)>,
            /// Procedure transaction id: retransmissions reuse it, so the MME
            /// can answer duplicates from its ack cache instead of switching
            /// the path twice.
            txid as "tx": u32,
        },
        /// MME → target eNB: path switch complete; carries any updated uplink
        /// F-TEIDs the target must use from now on.
        PathSwitchRequestAck = "PSa" (S1apSctp, "PathSwitchRequestAcknowledge", 260) {
            /// Subscriber.
            imsi: Imsi,
            /// Updated bearer parameters (empty when nothing changed).
            erabs: Vec<ErabSetup>,
        },

        // ---- X2AP (eNB <-> eNB), over SCTP; handovers, not in §4 ----
        /// Source eNB → target eNB: prepare an incoming handover with the
        /// UE's current bearer set.
        X2HandoverRequest = "HOq" (X2Sctp, "X2HandoverRequest", 420) {
            /// Subscriber.
            imsi: Imsi,
            /// UE IP address (if already assigned).
            ue_addr: Option<Ipv4Addr>,
            /// Bearers to admit at the target.
            bearers: Vec<ErabSetup>,
            /// Procedure transaction id: a retransmitted request carries the
            /// same id and is re-acked with the already-admitted TEIDs.
            txid as "tx": u32,
        },
        /// Target eNB → source eNB: handover admitted; the returned TEIDs
        /// double as the X2 downlink-forwarding tunnel endpoints.
        X2HandoverRequestAck = "HOa" (X2Sctp, "X2HandoverRequestAcknowledge", 120) {
            /// Subscriber.
            imsi: Imsi,
            /// (EBI, target-eNB TEID) per admitted bearer.
            erabs: Vec<(Ebi, Teid)>,
            /// Echo of the request's transaction id — lets the source discard
            /// acks of an attempt it has already cancelled.
            txid as "tx": u32,
        },
        /// Source eNB → target eNB: abandon a prepared handover (the source's
        /// preparation guard — the TX2RELOCprep/overall analogue — expired
        /// without an ack). The target drops any admitted context.
        X2HandoverCancel = "HOc" (X2Sctp, "X2HandoverCancel", 90) {
            /// Subscriber.
            imsi: Imsi,
            /// Transaction id of the abandoned preparation.
            txid as "tx": u32,
        },
        /// Source eNB → target eNB: PDCP sequence-number status at the moment
        /// of handover (lossless-handover bookkeeping).
        X2SnStatusTransfer = "SNS" (X2Sctp, "X2SnStatusTransfer", 110) {
            /// Subscriber.
            imsi: Imsi,
            /// Next expected downlink PDCP SN.
            dl_count: u32,
            /// Next expected uplink PDCP SN.
            ul_count: u32,
        },
        /// Target eNB → source eNB: path switch done; release the old UE
        /// context and stop forwarding.
        X2UeContextRelease = "XUR" (X2Sctp, "X2UEContextRelease", 80) {
            /// Subscriber.
            imsi: Imsi,
        },

        // ---- GTPv2-C (MME <-> GW-C); §4: Release and Modify pairs, 352 B ----
        /// MME → GW-C: create the default-bearer session.
        CreateSessionRequest = "CSq" (Gtpv2, "CreateSessionRequest", 220) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// GW-C → MME: session created.
        CreateSessionResponse = "CSp" (Gtpv2, "CreateSessionResponse", 260) {
            /// Subscriber.
            imsi: Imsi,
            /// Address assigned to the UE.
            ue_addr: Ipv4Addr,
            /// SGW-U S1 uplink TEID + address for the default bearer.
            erab: ErabSetup,
        },
        /// GW-C → MME: network-initiated dedicated bearer (paper step 2/3).
        CreateBearerRequest = "CBq" (Gtpv2, "CreateBearerRequest", 240) {
            /// Subscriber.
            imsi: Imsi,
            /// Bearer parameters, F-TEID pointing at the **local** GW-U.
            erab: ErabSetup,
        },
        /// MME → GW-C: dedicated bearer outcome.
        CreateBearerResponse = "CBp" (Gtpv2, "CreateBearerResponse", 130) {
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
        DeleteBearerRequest = "DBq" (Gtpv2, "DeleteBearerRequest", 95) {
            /// Subscriber.
            imsi: Imsi,
            /// Bearer id.
            ebi: Ebi,
        },
        /// MME → GW-C: bearer deleted.
        DeleteBearerResponse = "DBp" (Gtpv2, "DeleteBearerResponse", 90) {
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
        DeleteBearerCommand = "DBc" (Gtpv2, "DeleteBearerCommand", 85) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// O&M / failure-detection plane → GW-C: a local GW-U died; flush
        /// every dedicated bearer anchored on it (the `DBc` stale-flow
        /// flush generalised to a whole switch). The dead switch's flow
        /// table died with it — and a restarted GW-U comes back empty — so
        /// no removal FlowMods are addressed to the failed GW-U itself.
        GwuFailureIndication = "GWUF" (Gtpv2, "GwuFailureIndication", 70) {
            /// Data-plane address of the failed local GW-U.
            gwu_addr: Ipv4Addr,
        },
        /// MME → GW-C: UE idle; release S1-U downlink path.
        ReleaseAccessBearersRequest = "RABq" (Gtpv2, "ReleaseAccessBearersRequest", 70) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// GW-C → MME: released.
        ReleaseAccessBearersResponse = "RABp" (Gtpv2, "ReleaseAccessBearersResponse", 70) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// MME → GW-C: (re)attach the eNB leg after service request.
        ModifyBearerRequest = "MBq" (Gtpv2, "ModifyBearerRequest", 120) { // (*)
            /// Subscriber.
            imsi: Imsi,
            /// eNB downlink TEID.
            enb_teid: Teid,
            /// eNB address.
            enb_addr: Ipv4Addr,
        },
        /// GW-C → MME: modified.
        ModifyBearerResponse = "MBp" (Gtpv2, "ModifyBearerResponse", 92) { // (*)
            /// Subscriber.
            imsi: Imsi,
        },
        /// SGW-U → GW-C: downlink data arrived for a released bearer (the
        /// tunnel id identifies the session); triggers paging.
        DownlinkDataByTeid = "DDNt" (Gtpv2, "DownlinkDataNotification(TEID)", 66) {
            /// S1 downlink TEID the packet carried.
            teid: Teid,
        },
        /// GW-C → MME: Downlink Data Notification for an idle subscriber.
        DownlinkDataNotification = "DDN" (Gtpv2, "DownlinkDataNotification", 70) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// MME → GW-C after a path switch: re-anchor every bearer's S1 leg on
        /// the target eNB (a Modify Bearer carrying the full bearer list).
        BearerRelocationRequest = "BRq" (Gtpv2, "BearerRelocationRequest", 120) {
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
        BearerRelocationResponse = "BRp" (Gtpv2, "BearerRelocationResponse", 240) {
            /// Subscriber.
            imsi: Imsi,
            /// Updated bearer parameters for the target eNB (may be empty).
            erabs: Vec<ErabSetup>,
            /// Dedicated bearers torn down because the target has no MEC path.
            released: Vec<Ebi>,
        },

        // ---- Diameter (MRS/AF -> PCRF -> PCEF, MME -> HSS) ----
        /// Rx AAR: the MRS (an AF) requests resources for a CI flow.
        RxAuthRequest = "RxQ" (Diameter, "Rx-AAR", 320) {
            /// Policy rule describing the flow.
            rule: PolicyRule,
        },
        /// Rx AAA: PCRF answer.
        RxAuthAnswer = "RxA" (Diameter, "Rx-AAA", 180) {
            /// Service the answer refers to.
            service_id: u32,
            /// Accepted?
            ok: bool,
        },
        /// Gx RAR: PCRF pushes a rule to the PCEF.
        GxReauthRequest = "GxQ" (Diameter, "Gx-RAR", 340) {
            /// The rule.
            rule: PolicyRule,
        },
        /// Gx RAA: PCEF answer.
        GxReauthAnswer = "GxA" (Diameter, "Gx-RAA", 190) {
            /// Service the answer refers to.
            service_id: u32,
            /// Installed?
            ok: bool,
        },
        /// S6a Authentication-Information-Request (MME → HSS).
        S6aAuthInfoRequest = "AIR" (Diameter, "S6a-AIR", 230) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// S6a Authentication-Information-Answer (HSS → MME).
        S6aAuthInfoAnswer = "AIA" (Diameter, "S6a-AIA", 300) {
            /// Subscriber.
            imsi: Imsi,
            /// Is the subscriber known/authorized?
            ok: bool,
        },

        // ---- OpenFlow (GW-C -> GW-U); §4: two deletes, two adds, 1424 B ----
        /// Install or remove a flow rule on a GW-U.
        FlowMod = "FM" (OpenFlow, "FlowMod(add)", 400) { // (*)
            /// Add (true) or delete (false).
            add: bool,
            /// Rule priority.
            priority: u16,
            /// Match spec.
            mtch: FlowMatchSpec,
            /// Actions.
            actions: Vec<FlowActionSpec>,
        },

        // ---- RRC/NAS over the radio (UE <-> eNB); not in the §4 core counts ----
        /// NAS attach request (UE → eNB, piggybacked on RRC).
        RrcAttachRequest = "RAq" (Rrc, "RRC(AttachRequest)", 90) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// NAS service request (idle → active).
        RrcServiceRequest = "RSq" (Rrc, "RRC(ServiceRequest)", 70) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// RRC Connection Reconfiguration: carries the new radio bearer id,
        /// QoS and **the uplink TFT** the modem will classify with (paper
        /// step 3).
        RrcReconfiguration = "RRc" (Rrc, "RRCConnectionReconfiguration", 210) {
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
        RrcRelease = "RRl" (Rrc, "RRCConnectionRelease", 60) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// RRC-side removal of one dedicated bearer.
        RrcBearerRelease = "RBR" (Rrc, "RRC(BearerRelease)", 70) {
            /// Bearer to drop.
            ebi: Ebi,
        },
        /// Paging indication on the radio (PCH).
        RrcPaging = "RPG" (Rrc, "RRC(Paging)", 60) {
            /// Subscriber being paged.
            imsi: Imsi,
        },
        /// UE → serving eNB: A3-event measurement report (a neighbour cell is
        /// offset-better than the serving cell). RSRP in centi-dBm keeps the
        /// wire format integer-exact.
        RrcMeasurementReport = "RMR" (Rrc, "RRC(MeasurementReport)", 140) {
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
        RrcHandoverCommand = "RHC" (Rrc, "RRC(HandoverCommand)", 96) {
            /// Subscriber.
            imsi: Imsi,
            /// Radio address of the target cell.
            target_radio: Ipv4Addr,
        },
        /// UE → target eNB: synchronized on the new cell (RRC reconfiguration
        /// complete).
        RrcHandoverConfirm = "RHF" (Rrc, "RRC(HandoverConfirm)", 64) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// UE → eNB: the T304 analogue expired without downlink progress (the
        /// HandoverCommand or the post-handover path never materialised); the
        /// UE re-establishes on the cell it can still hear.
        RrcReestablishmentRequest = "REq" (Rrc, "RRC(ReestablishmentRequest)", 72) {
            /// Subscriber.
            imsi: Imsi,
        },
        /// eNB → UE: re-establishment accepted; the UE resumes on this cell.
        RrcReestablishmentConfirm = "REc" (Rrc, "RRC(ReestablishmentConfirm)", 88) {
            /// Subscriber.
            imsi: Imsi,
        },
    }

    // A FlowMod deletion is the one message whose name and size follow a
    // field; its payload stays `{"FM":{"add":false,…}}`.
    FlowMod { add: false, .. } => FlowModDel (OpenFlow, "FlowMod(del)", 312), // (*)
}

impl ControlMsg {
    /// Protocol family (decides transport and byte accounting bucket).
    pub fn protocol(&self) -> Protocol {
        KINDS[self.kind()].0
    }

    /// Calibrated total on-the-wire size (IP + transport + message) in
    /// bytes. The idle-release + re-establishment sequence sums to the
    /// paper's measured 2914 bytes; see module docs.
    pub fn wire_size_spec(&self) -> u32 {
        KINDS[self.kind()].2
    }

    /// A packet from `src` to `dst` carrying this message typed, with
    /// transport chosen by protocol family and wire size padded to
    /// [`Self::wire_size_spec`].
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
            payload: Payload::typed(0, self.clone()),
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

    /// Decode a control message from its JSON text. No run reads text: the
    /// text pins and the reader fuzz tests use this as their oracle.
    pub fn decode(payload: &[u8]) -> Option<ControlMsg> {
        json::decode(payload)
    }

    /// The message a packet carries, if it carries one.
    pub fn from_packet(pkt: &Packet) -> Option<ControlMsg> {
        pkt.payload.msg::<ControlMsg>().cloned()
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

#[cfg(test)]
mod tests {
    use super::*;
    use acacia_simnet::packet::{l4_header_len, IPV4_HEADER};
    use std::collections::HashSet;
    use Protocol::{Diameter, Gtpv2, OpenFlow, Rrc, S1apSctp, X2Sctp};

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
    /// variants and field shapes it leaves out. Each row also pins the
    /// message's log name, protocol family and calibrated wire size; the
    /// two `FlowMod` rows cover both of its names.
    #[rustfmt::skip]
    const PAYLOADS: [(&str, &str, Protocol, u32); 56] = [
        (r#"{"IUA":{"imsi":310410000000001}}"#, "InitialUE(Attach)", S1apSctp, 140),
        (r#"{"IUS":{"imsi":310410000000001}}"#, "InitialUE(ServiceRequest)", S1apSctp, 120),
        (r#"{"ICSq":{"imsi":310410000000001,"erabs":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}]}}"#, "InitialContextSetupRequest", S1apSctp, 280),
        (r#"{"ICSp":{"imsi":310410000000001,"enb_teids":[[5,12289]]}}"#, "InitialContextSetupResponse", S1apSctp, 120),
        (r#"{"DNA":{"imsi":310410000000001,"ue_addr":"10.10.0.1"}}"#, "DownlinkNAS(Accept)", S1apSctp, 110),
        (r#"{"ESq":{"imsi":310410000000001,"erab":{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}}}"#, "E-RABSetupRequest", S1apSctp, 300),
        (r#"{"ESp":{"imsi":310410000000001,"ebi":6,"enb_teid":12290}}"#, "E-RABSetupResponse", S1apSctp, 130),
        (r#"{"UCRq":{"imsi":310410000000001}}"#, "UEContextReleaseRequest", S1apSctp, 140),
        (r#"{"UCRc":{"imsi":310410000000001}}"#, "UEContextReleaseCommand", S1apSctp, 180),
        (r#"{"UCRd":{"imsi":310410000000001}}"#, "UEContextReleaseComplete", S1apSctp, 188),
        (r#"{"CSq":{"imsi":310410000000001}}"#, "CreateSessionRequest", Gtpv2, 220),
        (r#"{"CBq":{"imsi":310410000000001,"erab":{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}}}"#, "CreateBearerRequest", Gtpv2, 240),
        (r#"{"RABq":{"imsi":310410000000001}}"#, "ReleaseAccessBearersRequest", Gtpv2, 70),
        (r#"{"RABp":{"imsi":310410000000001}}"#, "ReleaseAccessBearersResponse", Gtpv2, 70),
        (r#"{"MBq":{"imsi":310410000000001,"enb_teid":12289,"enb_addr":"10.1.0.1"}}"#, "ModifyBearerRequest", Gtpv2, 120),
        (r#"{"MBp":{"imsi":310410000000001}}"#, "ModifyBearerResponse", Gtpv2, 92),
        (r#"{"RxQ":{"rule":{"service_id":7,"ue_addr":"10.10.0.1","server_addr":"10.4.0.1","server_port":9000,"qci":7,"install":true}}}"#, "Rx-AAR", Diameter, 320),
        (r#"{"FM":{"add":true,"priority":100,"mtch":{"teid":8193},"actions":["GtpDecap",{"Output":{"port":2}}]}}"#, "FlowMod(add)", OpenFlow, 400),
        (r#"{"RRc":{"ebi":6,"qci":7,"tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]},"ue_addr":null}}"#, "RRCConnectionReconfiguration", Rrc, 210),
        (r#"{"PSq":{"imsi":310410000000001,"enb_addr":"10.1.0.2","erabs":[[5,12293],[6,12294]],"tx":3}}"#, "PathSwitchRequest", S1apSctp, 150),
        (r#"{"PSa":{"imsi":310410000000001,"erabs":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}]}}"#, "PathSwitchRequestAcknowledge", S1apSctp, 260),
        (r#"{"HOq":{"imsi":310410000000001,"ue_addr":"10.10.0.1","bearers":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}],"tx":7}}"#, "X2HandoverRequest", X2Sctp, 420),
        (r#"{"HOa":{"imsi":310410000000001,"erabs":[[5,12293],[6,12294]],"tx":7}}"#, "X2HandoverRequestAcknowledge", X2Sctp, 120),
        (r#"{"HOc":{"imsi":310410000000001,"tx":7}}"#, "X2HandoverCancel", X2Sctp, 90),
        (r#"{"SNS":{"imsi":310410000000001,"dl_count":421,"ul_count":197}}"#, "X2SnStatusTransfer", X2Sctp, 110),
        (r#"{"XUR":{"imsi":310410000000001}}"#, "X2UEContextRelease", X2Sctp, 80),
        (r#"{"BRq":{"imsi":310410000000001,"enb_addr":"10.1.0.2","enb_teids":[[5,12293],[6,12294]]}}"#, "BearerRelocationRequest", Gtpv2, 120),
        (r#"{"BRp":{"imsi":310410000000001,"erabs":[{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}],"released":[6]}}"#, "BearerRelocationResponse", Gtpv2, 240),
        (r#"{"RMR":{"imsi":310410000000001,"serving_rsrp_cdbm":-9810,"target_radio":"192.168.0.2","target_rsrp_cdbm":-9120}}"#, "RRC(MeasurementReport)", Rrc, 140),
        (r#"{"RHC":{"imsi":310410000000001,"target_radio":"192.168.0.2"}}"#, "RRC(HandoverCommand)", Rrc, 96),
        (r#"{"RHF":{"imsi":310410000000001}}"#, "RRC(HandoverConfirm)", Rrc, 64),
        (r#"{"REq":{"imsi":310410000000001}}"#, "RRC(ReestablishmentRequest)", Rrc, 72),
        (r#"{"REc":{"imsi":310410000000001}}"#, "RRC(ReestablishmentConfirm)", Rrc, 88),
        (r#"{"ERC":{"imsi":310410000000001,"ebi":6}}"#, "E-RABReleaseCommand", S1apSctp, 120),
        (r#"{"ERR":{"imsi":310410000000001,"ebi":6}}"#, "E-RABReleaseResponse", S1apSctp, 110),
        (r#"{"PAG":{"imsi":310410000000001}}"#, "Paging", S1apSctp, 110),
        (r#"{"CSp":{"imsi":310410000000001,"ue_addr":"10.10.0.1","erab":{"ebi":6,"qci":7,"gw_teid":8193,"gw_addr":"10.2.1.1","tft":{"f":[{"p":0,"d":"B","a":["10.4.0.1",32]}]}}}}"#, "CreateSessionResponse", Gtpv2, 260),
        (r#"{"CBp":{"imsi":310410000000001,"ebi":6,"enb_teid":12290,"enb_addr":"10.1.0.1"}}"#, "CreateBearerResponse", Gtpv2, 130),
        (r#"{"DBq":{"imsi":310410000000001,"ebi":6}}"#, "DeleteBearerRequest", Gtpv2, 95),
        (r#"{"DBp":{"imsi":310410000000001,"ebi":6}}"#, "DeleteBearerResponse", Gtpv2, 90),
        (r#"{"DBc":{"imsi":310410000000001}}"#, "DeleteBearerCommand", Gtpv2, 85),
        (r#"{"GWUF":{"gwu_addr":"10.2.1.1"}}"#, "GwuFailureIndication", Gtpv2, 70),
        (r#"{"DDNt":{"teid":12289}}"#, "DownlinkDataNotification(TEID)", Gtpv2, 66),
        (r#"{"DDN":{"imsi":310410000000001}}"#, "DownlinkDataNotification", Gtpv2, 70),
        (r#"{"RxA":{"service_id":7,"ok":true}}"#, "Rx-AAA", Diameter, 180),
        (r#"{"GxQ":{"rule":{"service_id":7,"ue_addr":"10.10.0.1","server_addr":"10.4.0.1","server_port":9000,"qci":7,"install":true}}}"#, "Gx-RAR", Diameter, 340),
        (r#"{"GxA":{"service_id":7,"ok":false}}"#, "Gx-RAA", Diameter, 190),
        (r#"{"AIR":{"imsi":310410000000001}}"#, "S6a-AIR", Diameter, 230),
        (r#"{"AIA":{"imsi":310410000000001,"ok":true}}"#, "S6a-AIA", Diameter, 300),
        (r#"{"FM":{"add":false,"priority":200,"mtch":{"dst":"10.10.0.1","src":"10.4.0.1"},"actions":[{"SetTos":{"tos":28}},{"GtpEncap":{"peer":"10.1.0.1","teid":12289}}]}}"#, "FlowMod(del)", OpenFlow, 312),
        (r#"{"RAq":{"imsi":310410000000001}}"#, "RRC(AttachRequest)", Rrc, 90),
        (r#"{"RSq":{"imsi":310410000000001}}"#, "RRC(ServiceRequest)", Rrc, 70),
        (r#"{"RRc":{"ebi":6,"qci":7,"tft":{"f":[{"p":0,"d":"U","a":["10.4.0.1",32],"r":[9000,9000],"x":17}]},"ue_addr":"10.10.0.1"}}"#, "RRCConnectionReconfiguration", Rrc, 210),
        (r#"{"RRl":{"imsi":310410000000001}}"#, "RRCConnectionRelease", Rrc, 60),
        (r#"{"RBR":{"ebi":6}}"#, "RRC(BearerRelease)", Rrc, 70),
        (r#"{"RPG":{"imsi":310410000000001}}"#, "RRC(Paging)", Rrc, 60),
    ];

    fn encode(msg: &ControlMsg) -> Packet {
        msg.into_packet(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 3, 0, 1))
    }

    /// The typed packet and RRC frame of `msg` are exactly as long as the
    /// JSON ones were: the text's length (after the frame's type byte),
    /// and a wire size of `max(spec, headers + that length)`.
    fn assert_sized_as_json(msg: &ControlMsg) {
        let len = json::encode(b"", msg).len();
        assert_eq!(json::encoded_len(msg), len, "{msg:?}");
        let spec = msg.wire_size_spec();
        let pkt = encode(msg);
        let headers = IPV4_HEADER + l4_header_len(pkt.protocol);
        let as_json = spec.max(headers + len as u32);
        assert_eq!((pkt.payload.len(), pkt.wire_size()), (len, as_json));
        let frame = crate::radio::rrc_frame(msg, Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST);
        let as_json = spec.max(IPV4_HEADER + 1 + len as u32);
        assert_eq!((frame.payload.len(), frame.wire_size()), (len + 1, as_json));
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
        let (mut variants, mut kinds) = (HashSet::new(), HashSet::new());
        for (i, (text, name, protocol, spec)) in PAYLOADS.into_iter().enumerate() {
            let msg = ControlMsg::decode(text.as_bytes()).expect(text);
            assert!(i >= samples.len() || samples[i] == msg, "{text}");
            let catalogued = (KINDS[msg.kind()].1, msg.protocol(), msg.wire_size_spec());
            assert_eq!(catalogued, (name, protocol, spec), "{text}");
            assert_eq!(json::encode(b"", &msg), text.as_bytes());
            assert_eq!(ControlMsg::from_packet(&encode(&msg)).as_ref(), Some(&msg));
            assert_sized_as_json(&msg);
            variants.insert(std::mem::discriminant(&msg));
            kinds.insert(msg.kind());
        }
        assert_eq!(kinds.len(), KIND_COUNT, "every kind is pinned");
        // `FlowMod(del)` is the one kind that is not a variant of its own.
        assert_eq!(variants.len(), KIND_COUNT - 1, "every variant is pinned");
    }

    #[test]
    fn wire_sizes_match_spec_exactly() {
        for (text, ..) in PAYLOADS {
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
            assert_eq!((pkt.payload.len(), pkt.wire_size()), (text.len(), size));
            assert_sized_as_json(&msg);
            assert!(size > msg.wire_size_spec());
            // A radio frame has a smaller header and stays at its spec.
            let frame = crate::radio::rrc_frame(&msg, Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST);
            assert_eq!(frame.wire_size(), msg.wire_size_spec());
        }
    }

    /// Each message's JSON names its own tag, quoted, and no other kind's:
    /// so selecting a message by [`Message::tag`] picks exactly the
    /// packets a search for the quoted tag in the text would have.
    #[test]
    fn each_json_quotes_its_own_tag_and_no_other() {
        let msgs: Vec<ControlMsg> = PAYLOADS
            .iter()
            .map(|(text, ..)| ControlMsg::decode(text.as_bytes()).unwrap())
            .collect();
        let tags: HashSet<&str> = msgs.iter().filter_map(|m| m.tag()).collect();
        assert_eq!(tags.len(), KIND_COUNT - 1, "one tag per variant");
        assert_eq!(tags, HashSet::from(TAGS));
        for ((text, ..), msg) in PAYLOADS.iter().zip(&msgs) {
            for tag in &tags {
                let quoted = text.contains(&format!("\"{tag}\""));
                assert_eq!(quoted, Some(*tag) == msg.tag(), "{tag} in {text}");
            }
            let frame = crate::radio::rrc_frame(msg, Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST);
            assert_eq!(frame.payload.tag(), msg.tag());
            assert_eq!(encode(msg).payload.tag(), msg.tag());
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
