//! # acacia-lte — an LTE/EPC stack on the simnet substrate
//!
//! A functional reproduction of the network side of the ACACIA paper:
//!
//! * [`qci`], [`ids`], [`tft`] — QoS classes, TEIDs/EBIs/IMSIs, traffic
//!   flow templates (the modem-resident uplink classifiers).
//! * [`wire`] — byte-accurate S1AP/SCTP, GTPv2-C, Diameter, OpenFlow and
//!   RRC control messages, calibrated to the paper's §4 measurement
//!   (release + re-establish = 15 messages / 2914 bytes).
//! * [`json`] — the hand-written JSON codec behind every application
//!   payload and the length of every typed control payload,
//!   byte-compatible with the recorded goldens.
//! * [`gtpu`] — GTP-U user-plane tunnelling with faithful overhead.
//! * [`radio`] — bearer-tagged radio frames and priority schedulers.
//! * [`switch`] — OpenFlow-programmed GW-U switches with slow/fast path
//!   cost models (OVS kernel cache vs OpenEPC user space, Fig. 8).
//! * [`ue`], [`enb`], [`entities`] — the protocol state machines (UE, eNB,
//!   MME, HSS, PCRF, split GW-C with PCEF).
//! * [`network`] — the assembled Fig. 5 topology plus procedure drivers
//!   (attach, network-initiated dedicated bearers to *local* MEC
//!   gateways, idle release, service request).
//! * [`log`] — shared control-message accounting.
//!
//! ```no_run
//! use acacia_lte::network::{LteConfig, LteNetwork};
//! use acacia_lte::wire::PolicyRule;
//! use acacia_lte::qci::Qci;
//! use acacia_simnet::traffic::Reflector;
//!
//! let mut net = LteNetwork::new(LteConfig::default());
//! let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));
//! let ue_ip = net.attach(0);
//! net.activate_dedicated_bearer(0, PolicyRule {
//!     service_id: 1, ue_addr: ue_ip, server_addr: mec_addr,
//!     server_port: 0, qci: Qci(7), install: true,
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enb;
pub mod entities;
pub mod gtpu;
pub mod ids;
pub mod json;
pub mod log;
pub mod mobility;
pub mod network;
pub mod overhead;
pub mod qci;
pub mod radio;
pub mod switch;
pub mod tft;
pub mod ue;
pub mod wire;

pub use ids::{Ebi, Imsi, Teid};
pub use log::MsgLog;
pub use network::{LteConfig, LteNetwork};
pub use qci::Qci;
pub use switch::{FlowSwitch, SwitchCosts};
pub use tft::{Direction, PacketFilter, Tft};
pub use wire::{ControlMsg, PolicyRule, Protocol};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::ids::{Ebi, Imsi, Teid};
    pub use crate::log::MsgLog;
    pub use crate::mobility::{CellSite, Trajectory, Waypoint};
    pub use crate::network::{addr, CellConfig, LteConfig, LteNetwork};
    pub use crate::qci::Qci;
    pub use crate::switch::{FlowSwitch, SwitchCosts};
    pub use crate::tft::{Direction, PacketFilter, Tft};
    pub use crate::ue::{AppSelector, Ue, UeState};
    pub use crate::wire::{ControlMsg, PolicyRule, Protocol};
}

/// The [`json`] primitives: round trips, and the strict reader's refusal
/// of anything the writer would not emit. Whole messages are pinned in
/// `wire::tests`.
#[cfg(test)]
mod tests {
    use crate::json::{decode, encode, Json};
    use crate::wire::FlowMatchSpec;
    use crate::{Ebi, Teid};
    use std::net::Ipv4Addr;

    /// Each text decodes as a `T` that encodes back to it.
    fn same<T: Json>(texts: &[&str]) {
        for text in texts {
            let back = decode::<T>(text.as_bytes()).map(|v| encode(b"", &v));
            assert_eq!(back.as_deref(), Some(text.as_bytes()), "{text:?}");
        }
    }

    /// No text decodes as a `T`.
    fn refused<T: Json>(texts: &[&str]) {
        for text in texts {
            assert!(decode::<T>(text.as_bytes()).is_none(), "{text:?}");
        }
    }

    #[test]
    fn primitives_round_trip() {
        same::<bool>(&["true", "false"]);
        same::<i32>(&["0", "42", "-9810"]);
        same::<String>(&[r#""hi""#, r#""""#]);
        same::<Option<u32>>(&["null", "7"]);
        same::<Vec<u16>>(&["[]", "[1,2,3]"]);
        same::<Ipv4Addr>(&[r#""10.4.0.255""#]);
        refused::<Ipv4Addr>(&[r#""10.4.0""#, r#""10.4.0.256""#, r#""10.04.0.1""#, "null"]);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [
            0.1,
            1.0 / 3.0,
            1e30,
            -2.5e-10,
            f64::MIN_POSITIVE,
            0.05,
            1.0,
            1e-7,
            -71.5,
        ] {
            let text = encode(b"", &f);
            assert_eq!(text, format!("{f:?}").as_bytes());
            assert_eq!(decode::<f64>(&text).map(f64::to_bits), Some(f.to_bits()));
        }
        // Not finite: written as null, which no f64 reads back. Only the
        // spelling `{:?}` prints is accepted.
        assert_eq!(encode(b"", &f64::NAN), b"null");
        refused::<f64>(&[
            "null", "1", "1.50", "01.5", "+1.0", "1.0e0", "10000000", "1e400", "",
        ]);
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\r\u{1}\u{7f}/☃";
        let text = "\"a\\\"b\\\\c\\nd\\te\\b\\f\\r\\u0001\u{7f}/☃\"";
        assert_eq!(encode(b"", &s.to_string()), text.as_bytes());
        assert_eq!(decode::<String>(text.as_bytes()).as_deref(), Some(s));
        // Escapes the writer never emits, and raw control bytes.
        refused::<String>(&[
            r#""\/""#,
            "\"\\u0041\"",
            r#""\u000a""#,
            r#""\u001F""#,
            "\"\n\"",
        ]);
        assert!(decode::<String>(b"\"\xff\"").is_none(), "not UTF-8");
    }

    #[test]
    fn integers_round_trip_through_value() {
        // Each integer type reads only what fits it.
        same::<u16>(&["300"]);
        refused::<u8>(&["300", "-1"]);
        same::<i32>(&["-5", "-2147483648", "2147483647"]);
        refused::<i32>(&["-0", "2147483648", "-2147483649"]);
    }

    #[test]
    fn big_integers_survive() {
        same::<u64>(&["18446744073709551615"]);
        refused::<u64>(&["18446744073709551616", "007", "-0", "1.0", "1e3"]);
    }

    #[test]
    fn tuples_are_arrays() {
        assert_eq!(encode(b"", &(Ebi(5), Teid(12289))), b"[5,12289]");
        refused::<(Ebi, Teid)>(&["[5]", "[5,1,2]", "[5 ,1]", "{5,1}"]);
    }

    #[test]
    fn option_missing_defaults_to_none() {
        // Skipped `None` fields read back as `None`; present ones must be
        // values, in declaration order.
        same::<FlowMatchSpec>(&[
            "{}",
            r#"{"dst":"10.0.0.1"}"#,
            r#"{"teid":7,"src":"10.0.0.2"}"#,
        ]);
        let spec = decode::<FlowMatchSpec>(br#"{"dst":"10.0.0.1"}"#).unwrap();
        assert_eq!(
            (spec.teid, spec.dst, spec.src),
            (None, Some(Ipv4Addr::new(10, 0, 0, 1)), None)
        );
        refused::<FlowMatchSpec>(&[r#"{"teid":null}"#, r#"{"src":"1.1.1.1","dst":"1.1.1.2"}"#]);
    }

    #[test]
    fn malformed_inputs_error() {
        refused::<Vec<u32>>(&[
            "", "[", "[1,", "[1,]", "[,1]", "nul", "[1 2]", "+5", " [1]", "[1, 2]",
        ]);
        refused::<String>(&["\"abc"]);
        refused::<u32>(&["1 "]);
    }
}
