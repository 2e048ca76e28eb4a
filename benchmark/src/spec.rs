//! The benchmark's vocabulary: workload names, metric names, units, the
//! direction in which each metric improves, and the regression bounds.
//! `BENCHMARK.json` at the repository root repeats these tables; a unit
//! test keeps the two equal.

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Engine shard count the repetition sets before building anything.
    pub shards: usize,
    /// Seconds one repetition (set-up and run) takes on the 2-core host the
    /// benchmark was sized on. `--seconds` is divided by this to get the
    /// repetition count, so the count does not depend on the clock.
    pub nominal_rep_s: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-app",
        why: "Single-UE full stack and the vision pipeline with cold process caches; simnet and lte do little",
        shards: 1,
        nominal_rep_s: 12.0,
    },
    Workload {
        name: "paper-net",
        why: "User-plane engine only: link FIFO and QCI classes with drops, transport, traffic, the flow-switch cost model; no vision",
        shards: 1,
        nominal_rep_s: 21.0,
    },
    Workload {
        name: "metro-s1",
        why: "Many-UE steady state on one shard: app codec, GTP-U, flow switch, radio frames, wheel and dispatch; vision memoized away",
        shards: 1,
        nominal_rep_s: 6.0,
    },
    Workload {
        name: "metro-s2",
        why: "Same simulated work as metro-s1 through the sharded engine (windows, exchange, pool); set-up and run read separately",
        shards: 2,
        nominal_rep_s: 12.0,
    },
    Workload {
        name: "signalling",
        why: "Control plane only: attach, bearer set-up and handovers; JSON codecs, UE/eNB/EPC state machines, the message log, small timers",
        shards: 1,
        nominal_rep_s: 8.0,
    },
];

pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric and by how much it may get worse before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    pub metric: Metric,
    /// Share of the parent's median, unless [`WIDENED`] names the pair.
    pub base: f64,
    /// A worsening below this, in the metric's unit, is never a regression
    /// ("10 % or 0.05 s": a set-up of a millisecond may double unnoticed).
    pub floor: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Host-time metrics a user of the simulator sees, as the clock and the
/// kernel read them, that hold a bound on this kind of host. The issue
/// lists six; see [`DEMOTED`] for three of the others. The sixth,
/// `failed_share`, must be 0 and a bounded metric may not be, so it is
/// carried by `failed` and `attempted` on the result line.
pub const END_TO_END: [Bounded; 2] = [
    Bounded {
        metric: lower("setup_s", "s"),
        base: 0.10,
        floor: 0.05,
    },
    Bounded {
        metric: lower("peak_rss_mb", "MB"),
        base: 0.05,
        floor: 0.0,
    },
];

/// No bound is ever wider than this; a metric that cannot hold it on some
/// workload is a per-layer metric.
pub const WIDEST_BOUND: f64 = 0.20;

/// A host-time metric the issue lists as end-to-end whose quartile spread
/// over ten runs of one commit went past [`WIDEST_BOUND`] on `workload`
/// (`README.md`, *Measured spread*), and which the issue's rule therefore
/// makes a per-layer metric. It is still measured like an end-to-end one
/// (untraced repetitions, the best reported), and `compare` still judges
/// it, at `WIDEST_BOUND` and without failing on it.
#[derive(Debug, Clone, Copy)]
pub struct Demoted {
    pub metric: Metric,
    pub workload: &'static str,
    pub measured_spread: f64,
}

pub const DEMOTED: [Demoted; 3] = [
    Demoted {
        metric: lower("host.run_s", "s"),
        workload: "paper-net",
        measured_spread: 0.315,
    },
    Demoted {
        metric: higher("host.events_per_s", "1/s"),
        workload: "paper-app",
        measured_spread: 0.220,
    },
    Demoted {
        metric: lower("host.cpu_s", "s"),
        workload: "metro-s2",
        measured_spread: 0.26,
    },
];

/// A bound widened for one (metric, workload) pair, with the spread that
/// made it necessary: the largest quartile spread among the ten-seed passes
/// of one commit on this configuration (`README.md`, *Measured spread*,
/// passes 5 and 6). `setup_s` is the one metric that stays end-to-end
/// whatever it measures, because the acceptance contract names it; where
/// its spread is past even the widest bound, `compare` says `unresolved`.
#[derive(Debug, Clone, Copy)]
pub struct Widened {
    pub metric: &'static str,
    pub workload: &'static str,
    pub bound: f64,
    pub measured_spread: f64,
}

const fn widened(
    metric: &'static str,
    workload: &'static str,
    bound: f64,
    measured_spread: f64,
) -> Widened {
    Widened {
        metric,
        workload,
        bound,
        measured_spread,
    }
}

pub const WIDENED: [Widened; 2] = [
    widened("setup_s", "metro-s1", 0.20, 0.415),
    widened("setup_s", "metro-s2", 0.20, 0.280),
];

/// The bound of `metric` on `workload`.
pub fn bound(metric: &Bounded, workload: &str) -> f64 {
    WIDENED
        .iter()
        .find(|w| w.metric == metric.metric.name && w.workload == workload)
        .map_or(metric.base, |w| w.bound)
}

/// The widest bound of `metric` over the workloads: what `BENCHMARK.json`,
/// which has room for one bound per metric, carries.
#[cfg(test)]
pub fn widest_bound(metric: &Bounded) -> f64 {
    WORKLOADS
        .iter()
        .map(|w| bound(metric, w.name))
        .fold(metric.base, f64::max)
}

/// Per-layer metrics, all measured from outside: phase spans (`<span>_s`
/// is the self time of the span the adapter opens under that name),
/// counters read through public getters at the span boundaries, and
/// kernels. A layer a workload never enters reads 0 there.
pub const PER_LAYER: [Metric; 70] = [
    lower("core.metro.build_s", "s"),
    lower("core.metro.schedule_s", "s"),
    lower("core.metro.await_s", "s"),
    lower("core.metro.collect_s", "s"),
    lower("lte.network.new_s", "s"),
    lower("lte.network.attach_s", "s"),
    lower("lte.network.bearer_s", "s"),
    lower("lte.network.walk_s", "s"),
    lower("bench.run.fig11b_s", "s"),
    lower("bench.run.fig12_s", "s"),
    lower("bench.run.fig13_s", "s"),
    lower("bench.run.ablation-radius_s", "s"),
    lower("bench.run.fig8_s", "s"),
    lower("bench.run.fig10a_s", "s"),
    lower("bench.run.loaded_s", "s"),
    lower("simnet.sim.events", "count"),
    lower("simnet.sim.arrivals", "count"),
    lower("simnet.sim.timers_skipped", "count"),
    lower("simnet.sim.ns_per_event", "ns"),
    lower("simnet.shard.cross_sent", "count"),
    lower("simnet.shard.imbalance", "ratio"),
    higher("simnet.shard.lookahead_us", "us"),
    lower("simnet.shard.windows_est", "count"),
    higher("simnet.shard.events_per_window_est", "count"),
    lower("lte.log.entries", "count"),
    lower("lte.wire.x2_msgs", "count"),
    lower("lte.wire.s1ap_msgs", "count"),
    lower("lte.wire.gtpc_msgs", "count"),
    lower("lte.wire.core_bytes", "bytes"),
    higher("lte.ue.handovers", "count"),
    higher("lte.gwc.reanchored", "count"),
    higher("core.arclient.frames_done", "count"),
    lower("core.arclient.retx", "count"),
    lower("host.allocs_per_event", "count"),
    lower("host.alloc_bytes_per_event", "bytes"),
    lower("host.run_s", "s"),
    higher("host.events_per_s", "1/s"),
    lower("host.cpu_s", "s"),
    lower("host.ref_ms", "ms"),
    lower("trace_overhead_share", "ratio"),
    lower("simnet.wheel.near_ns", "ns"),
    lower("simnet.wheel.far_ns", "ns"),
    lower("simnet.sim.timer_ns", "ns"),
    lower("simnet.sim.cancel_ns", "ns"),
    lower("simnet.link.fifo_ns", "ns"),
    lower("simnet.link.prio_ns", "ns"),
    lower("simnet.shard.window_ns", "ns"),
    lower("simnet.sim.run_until_call_ns.s1", "ns"),
    lower("simnet.sim.run_until_call_ns.s2", "ns"),
    lower("lte.wire.encode_ns", "ns"),
    lower("lte.wire.decode_ns", "ns"),
    lower("lte.wire.json_bytes_per_msg", "bytes"),
    lower("lte.radio.rrc_roundtrip_ns", "ns"),
    lower("core.msg.encode_ns", "ns"),
    lower("core.msg.decode_ns", "ns"),
    lower("lte.radio.data_roundtrip_ns", "ns"),
    lower("lte.gtpu.encap_ns", "ns"),
    lower("lte.gtpu.decap_ns", "ns"),
    lower("lte.tft.match_ns", "ns"),
    lower("lte.switch.pkt_ns.r1", "ns"),
    lower("lte.switch.pkt_ns.r2048", "ns"),
    lower("lte.log.record_ns", "ns"),
    lower("lte.log.record_2thr_ns", "ns"),
    lower("lte.network.attach_us.n256", "us"),
    lower("lte.network.attach_us.n2048", "us"),
    lower("vision.feature.extract_us", "us"),
    lower("vision.feature.render_view_us", "us"),
    lower("vision.matcher.match_pair_us", "us"),
    lower("vision.db.retail_build_ms", "ms"),
    lower("geo.trilateration.solve_ns", "ns"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_are_inside_the_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!((1..=2).contains(&w.shards), "at most 2 threads");
        }
        let metrics = END_TO_END.iter().map(|b| &b.metric).chain(PER_LAYER.iter());
        for m in metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for b in &END_TO_END {
            assert!(b.base > 0.0 && b.base <= 0.10, "{}", b.metric.name);
            assert!(widest_bound(b) <= WIDEST_BOUND, "{}", b.metric.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|b| b.metric.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!(
            (setup.metric.unit, setup.metric.better),
            ("s", Better::Lower)
        );
        assert!(END_TO_END
            .iter()
            .all(|b| widest_bound(b) <= widest_bound(setup)));
    }

    /// A demoted metric shows the spread that broke the widest bound, and
    /// is still printed: it is a per-layer metric now.
    #[test]
    fn demoted_metrics_carry_the_spread_that_demoted_them() {
        for d in &DEMOTED {
            assert!(d.measured_spread > WIDEST_BOUND, "{}", d.metric.name);
            assert!(workload(d.workload).is_ok(), "{}", d.workload);
            assert!(d.metric.name.starts_with("host."), "{}", d.metric.name);
            assert!(PER_LAYER.iter().any(|m| {
                (m.name, m.unit, m.better) == (d.metric.name, d.metric.unit, d.metric.better)
            }));
            assert!(END_TO_END
                .iter()
                .all(|b| !d.metric.name.ends_with(b.metric.name)));
        }
    }

    /// A bound past its base carries the spread that was measured and made
    /// the base too narrow, names a real pair, and is never past 20 %.
    #[test]
    fn widened_bounds_carry_their_measured_spread() {
        let mut seen = BTreeSet::new();
        for w in &WIDENED {
            let metric = END_TO_END
                .iter()
                .find(|b| b.metric.name == w.metric)
                .unwrap_or_else(|| panic!("{} is not an end-to-end metric", w.metric));
            assert!(workload(w.workload).is_ok(), "{}", w.workload);
            assert!(seen.insert((w.metric, w.workload)), "pair named twice");
            assert!(w.bound > metric.base && w.bound <= WIDEST_BOUND, "{w:?}");
            assert!(w.measured_spread > metric.base, "{w:?}");
            assert_eq!(bound(metric, w.workload), w.bound);
        }
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; it must say
    /// what this binary prints.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("well-formed");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let got: Vec<(String, String)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.metric.name);
            assert_eq!(field(got, "unit"), want.metric.unit);
            assert_eq!(field(got, "better"), want.metric.better.as_str());
            assert_eq!(
                got.get("bound").and_then(Json::as_f64),
                Some(widest_bound(want))
            );
            assert_eq!(got.as_obj().unwrap().len(), 4);
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.as_obj().unwrap().len(), 3);
        }

        let run_seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&run_seconds));
        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
