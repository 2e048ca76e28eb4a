//! The corridor tables, one per one-region preset of [`MetroConfig`].
//! None is a figure of the original paper: §8 argues ACACIA survives
//! mobility and signalling failures through standard procedures plus
//! MRS-driven bearer management, without measuring either. **mobility**
//! walks one UE per variant; **chaos** sweeps control-fault rates over
//! that walk (`figures --seed N` varies it); **scale** sweeps the
//! population; **loaded** floods the narrowed core under N walkers
//! (`--seed` too). Stdout carries only deterministic columns,
//! byte-identical across `--jobs` and `--shards`; scale's wall-clock goes
//! to `BENCH_scale.json`, which the `figures` binary writes.

use super::metro::frames_cell;
use crate::report::{self, Fields, Value};
use crate::runner;
use crate::table::{fmt_secs, Table};
use acacia::arclient::FrameStats;
use acacia::metro::{BearerMode, CoreLoad, LoadReport, MetroConfig, MetroReport, MetroScenario};
use acacia_simnet::stats::Series;

/// Control-message drop rates swept by the chaos figure (duplicates and
/// reorders ride along at half each rate). The 50% cell is deliberately
/// brutal — most handovers need the deeper rungs of the recovery ladder
/// to survive it.
pub const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.50];

/// UE populations swept by the scale benchmark.
pub const SCALE_UE_COUNTS: [usize; 4] = [1, 8, 32, 128];

/// UE populations swept by the loaded benchmark.
pub const LOADED_UE_COUNTS: [usize; 2] = [4, 16];

/// Background loads swept, Mbit/s, through and above the 100 Mbit/s
/// core: unloaded, just below, just above, and far above capacity.
pub const LOADS_MBPS: [u64; 4] = [0, 90, 110, 160];

/// Build and run one cell, reporting its engine events to the runner.
fn run_cell(cfg: MetroConfig) -> MetroReport {
    let report = MetroScenario::build(cfg).run();
    runner::report_events(report.events_processed);
    report
}

/// Mobility: session continuity across handovers, per variant.
pub(crate) fn mobility() -> Table {
    let cells = BearerMode::ALL
        .iter()
        .map(|&m| (m.name().to_string(), m))
        .collect();
    let runs = runner::pmap("mobility", cells, |mode| {
        let mut sc = MetroScenario::build(MetroConfig::mobility(mode));
        let timeline = sc.schedule();
        sc.await_sessions(&timeline);
        let report = sc.collect(&timeline);
        runner::report_events(report.events_processed);
        let latencies: Vec<f64> = sc.frames(0).iter().map(FrameStats::total_s).collect();
        (mode, report, latencies)
    });
    let mut t = Table::new(
        "Mobility — AR session across X2 handovers (MEC cell -> far cell -> back)",
        &[
            "variant",
            "frames",
            "handovers",
            "interrupt max",
            "x2 fwd",
            "probes lost",
            "retx",
            "bearer",
            "lat p50",
            "lat p90",
        ],
    );
    for (mode, r, latencies) in runs {
        let lat = Series::from_iter(latencies);
        let bearer = match (r.dedicated_reanchored, r.dedicated_released) {
            (0, 0) => "default only".to_string(),
            (re, 0) => format!("reanchored x{re}"),
            (0, rel) => format!("released x{rel}"),
            (re, rel) => format!("reanchored x{re}, released x{rel}"),
        };
        t.row(vec![
            mode.name().to_string(),
            frames_cell(&r),
            r.total_handovers().to_string(),
            fmt_secs(r.interrupt_max_ms() / 1e3),
            r.x2_forwarded.to_string(),
            format!("{}/{}", r.probes.1, r.probes.0),
            r.total_retransmissions().to_string(),
            bearer,
            fmt_secs(lat.median()),
            fmt_secs(lat.percentile(90.0)),
        ]);
    }
    t.note("every variant must complete all frames: session continuity is the claim under test");
    t.note("re-anchoring keeps the dedicated bearer (and MEC latency) across cells; fallback");
    t.note("survives on the default bearer at core latency until the UE returns to MEC coverage");
    t
}

/// The labelled chaos sweep at a given master seed.
pub(crate) fn chaos_grid(seed: u64, smoke: bool) -> Vec<(String, MetroConfig)> {
    DROP_RATES
        .iter()
        .map(|&rate| {
            let mut cfg = if smoke {
                MetroConfig::chaos_smoke(rate)
            } else {
                MetroConfig::chaos(rate)
            };
            cfg.seed = seed;
            // A seed-derived fault stream family, decorrelated from the
            // simulation RNG by construction (separate ChaCha8 streams).
            if let Some(faults) = cfg.faults.as_mut() {
                faults.seed = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(7);
            }
            (format!("drop={:.0}%", rate * 100.0), cfg)
        })
        .collect()
}

/// Chaos: handover recovery outcomes vs control-plane fault rate. Every
/// cell must end with no UE in an illegal state and no procedure open.
pub fn chaos() -> Table {
    let reports = runner::pmap("chaos", chaos_grid(crate::seed(), false), run_cell);
    let mut t = Table::new(
        &format!(
            "Chaos — X2/S1AP fault injection over the mobility walk (seed {})",
            crate::seed()
        ),
        &[
            "drop rate",
            "frames",
            "completed",
            "retx",
            "cancelled",
            "reest",
            "fallback",
            "interrupt p50",
            "interrupt max",
            "injected d/d/r",
            "cong drops",
            "wedged",
        ],
    );
    for (rate, r) in DROP_RATES.iter().zip(&reports) {
        assert_eq!(
            (r.stuck_ues, r.outstanding_procedures),
            (0, 0),
            "chaos seed {} drop={:.0}%: wedged UEs",
            crate::seed(),
            rate * 100.0
        );
        let (p50, max) = if r.interruptions_ms.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            let gaps = Series::from_iter(r.interruptions_ms.iter().copied());
            (
                fmt_secs(gaps.median() / 1e3),
                fmt_secs(r.interrupt_max_ms() / 1e3),
            )
        };
        let a = r.recovery;
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            frames_cell(r),
            a.completed.to_string(),
            format!("{}+{}", a.ho_retx, a.ps_retx),
            format!("{}/{}", a.cancelled, a.cancelled_in),
            a.reestablished.to_string(),
            a.fallback.to_string(),
            p50,
            max,
            format!(
                "{}/{}/{}",
                a.injected_drops, a.injected_duplicates, a.injected_reorders
            ),
            a.congestion_drops.to_string(),
            format!("{}+{}", r.stuck_ues, r.outstanding_procedures),
        ]);
    }
    t.note("recovery ladder: guard-timer retransmission (retx = X2 prep + path switch), handover");
    t.note("cancel, T304 -> RRC re-establishment (reest), and path-switch fallback to the default");
    t.note(
        "bearer + core detour; 'wedged' (UEs in an illegal end state + open procedures) must be 0",
    );
    t.note(
        "injected d/d/r = control packets dropped/duplicated/reordered by the seeded fault plans,",
    );
    t.note("attributed separately from organic congestion drops on the same links");
    t
}

/// Scale: signalling load and throughput vs concurrent UE count.
pub(crate) fn scale() -> Table {
    let cells = SCALE_UE_COUNTS
        .iter()
        .map(|&n| (format!("N={n}"), n))
        .collect();
    // Each cell is its report plus the wall-clock seconds it took (kept
    // off stdout).
    let cells = runner::pmap("scale", cells, |n| {
        let t0 = std::time::Instant::now();
        let report = run_cell(MetroConfig::scale(n));
        (report, t0.elapsed().as_secs_f64())
    });
    let mut t = Table::new(
        "Scale — handover signalling load vs concurrent UEs (two MEC cells)",
        &[
            "UEs",
            "frames",
            "handovers",
            "x2 msgs",
            "s1ap msgs",
            "gtp-c msgs",
            "core sig",
            "reanchors",
            "x2 fwd",
            "wedged",
            "events",
            "sim time",
        ],
    );
    for (r, _) in &cells {
        t.row(vec![
            r.ue_count.to_string(),
            frames_cell(r),
            r.total_handovers().to_string(),
            r.x2_msgs.to_string(),
            r.s1ap_msgs.to_string(),
            r.gtpc_msgs.to_string(),
            format!("{:.1} kB", r.core_signalling_bytes as f64 / 1e3),
            r.dedicated_reanchored.to_string(),
            r.x2_forwarded.to_string(),
            r.wedged().to_string(),
            r.events_processed.to_string(),
            fmt_secs(r.sim_elapsed.secs_f64()),
        ]);
    }
    t.note("every UE walks MEC cell -> far cell -> back with a live AR session; signalling");
    t.note("(X2 handover, S1AP path switch, GTP-C bearer management) scales with the walks,");
    t.note("not the frames; 'wedged' (sessions that lost frames) must be 0 at every N");

    for (r, _) in &cells {
        assert_eq!(r.wedged(), 0, "scale N={}: wedged sessions", r.ue_count);
    }
    // Wall-clock throughput is machine-dependent: JSON only, so stdout
    // stays byte-identical across runs and --jobs values.
    report::attach(&mut t, "scale", &scale_json_cells(&cells));
    t
}

/// The `BENCH_scale.json` cells: deterministic keys, then wall-clock.
pub(crate) fn scale_json_cells(cells: &[(MetroReport, f64)]) -> Vec<Fields> {
    cells
        .iter()
        .map(|(r, wall_s)| {
            let requested = r.frames_requested * r.ue_count as u64;
            let events_per_sec = r.events_processed as f64 / wall_s.max(1e-9);
            vec![
                ("ue_count", r.ue_count.into()),
                ("frames_done", r.frames_done().into()),
                ("frames_requested", requested.into()),
                ("handovers", r.total_handovers().into()),
                ("x2_msgs", r.x2_msgs.into()),
                ("s1ap_msgs", r.s1ap_msgs.into()),
                ("gtpc_msgs", r.gtpc_msgs.into()),
                ("core_signalling_bytes", r.core_signalling_bytes.into()),
                ("dedicated_reanchored", r.dedicated_reanchored.into()),
                ("x2_forwarded", r.x2_forwarded.into()),
                ("wedged", r.wedged().into()),
                ("events_processed", r.events_processed.into()),
                ("sim_elapsed_s", Value::Fixed(r.sim_elapsed.secs_f64(), 3)),
                ("wall_s", Value::Fixed(*wall_s, 3)),
                ("events_per_sec", Value::Fixed(events_per_sec, 0)),
            ]
        })
        .collect()
}

/// The labelled loaded sweep at a given master seed.
fn loaded_grid(seed: u64) -> Vec<(String, MetroConfig)> {
    let mut cells = Vec::with_capacity(LOADED_UE_COUNTS.len() * LOADS_MBPS.len());
    for &n in &LOADED_UE_COUNTS {
        for &mbps in &LOADS_MBPS {
            let cfg = MetroConfig {
                seed,
                ..MetroConfig::loaded(n, mbps)
            };
            cells.push((format!("N={n} bg={mbps}M"), cfg));
        }
    }
    cells
}

/// Per-class queue drops on the core leg, e.g. `c0:0 c1:939`.
fn drops_cell(load: &LoadReport) -> String {
    if load.core_classes.is_empty() {
        return "-".to_string();
    }
    load.core_classes
        .iter()
        .map(|&(c, s)| format!("c{c}:{}", s.drops_queue))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Loaded: congested multi-UE handovers, MEC path vs cloud path. Every
/// cell must complete its sessions, and every cell loaded above the
/// core's rate must drop best-effort (class-1) packets at the core queue.
pub fn loaded() -> Table {
    let reports = runner::pmap("loaded", loaded_grid(crate::seed()), run_cell);
    let mut t = Table::new(
        "Loaded — N-UE handovers under core congestion (100 Mbit/s shared core)",
        &[
            "UEs",
            "bg Mb/s",
            "frames",
            "handovers",
            "int p50",
            "int max",
            "mec p50",
            "cloud p50",
            "cloud p95",
            "cloud lost",
            "retx",
            "core drops",
            "wedged",
        ],
    );
    for r in &reports {
        let load = r.load.as_ref().expect("the loaded preset reports its load");
        let cell = format!(
            "loaded N={} bg={}M",
            r.ue_count,
            load.bg_rate_bps / 1_000_000
        );
        assert_eq!(r.wedged(), 0, "{cell}: wedged sessions");
        if load.bg_rate_bps > CoreLoad::CORE_RATE_BPS {
            let c1_drops = load
                .core_classes
                .iter()
                .find(|&&(c, _)| c == 1)
                .map_or(0, |(_, s)| s.drops_queue);
            assert!(c1_drops > 0, "{cell}: no class-1 drops above capacity");
        }
        let ints = Series::from_iter(r.interruptions_ms.iter().copied());
        let mec = Series::from_iter(r.probe_rtts_ms.iter().copied());
        let cloud = Series::from_iter(load.cloud_rtts_ms.iter().copied());
        t.row(vec![
            r.ue_count.to_string(),
            (load.bg_rate_bps / 1_000_000).to_string(),
            frames_cell(r),
            r.total_handovers().to_string(),
            format!("{:.1} ms", ints.median()),
            format!("{:.1} ms", ints.max()),
            format!("{:.2} ms", mec.median()),
            format!("{:.1} ms", cloud.median()),
            format!("{:.1} ms", cloud.percentile(95.0)),
            format!("{}/{}", load.cloud_probes.1, load.cloud_probes.0),
            r.total_retransmissions().to_string(),
            drops_cell(load),
            r.wedged().to_string(),
        ]);
    }
    t.note("background CBR floods the SGW-U -> PGW-U leg after every dedicated bearer is");
    t.note("placed; cloud probes share that leg (best-effort class), MEC sessions terminate");
    t.note("at the eNB-local gateway. Above 100 Mb/s the cloud path saturates toward the");
    t.note("~1 s queue limit and drops (per-class 'cN:drops' counters), while 'int max'");
    t.note("(per-handover interruption) stays bounded and 'wedged' stays 0 at every N.");
    t
}
