//! Pins the deterministic `cost/*` records of `BENCH_baseline.json`
//! **bitwise** against fresh measurements.
//!
//! The blocked local kernels changed how the arithmetic *executes*, but
//! charged paper costs come from the `flops::*` formulas — algorithm
//! level, not instruction level — and the communication patterns are
//! untouched. So every pre-existing cost record (the 12 singles plus the
//! fused-batch records) must reproduce to the last bit; any drift means
//! a kernel rewrite leaked into the cost model.

use std::sync::Arc;

use qr3d_bench::report::BenchReport;
use qr3d_bench::{
    run_caqr1d, run_caqr3d, run_cholqr2, run_cholqr2_batch, run_cholqr2_batch_over, run_pivotqr,
    run_rrqr, run_tsqr, run_tsqr_ft, run_tsqr_over, run_updating,
};
use qr3d_core::prelude::Caqr3dConfig;
use qr3d_machine::{Clock, MpscTransport, RingTransport};

fn baseline() -> BenchReport {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("committed baseline");
    BenchReport::from_json(&text).expect("baseline parses")
}

fn pinned(base: &BenchReport, name: &str) -> f64 {
    base.records
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("{name} missing from BENCH_baseline.json"))
        .value
}

fn assert_clock_pinned(base: &BenchReport, name: &str, c: Clock) {
    // Bitwise: the simulator's logical clocks are deterministic, and the
    // kernel rewrite must not move a single charged flop, word, or
    // message.
    assert_eq!(
        c.flops,
        pinned(base, &format!("cost/{name}/flops")),
        "cost/{name}/flops drifted"
    );
    assert_eq!(
        c.words,
        pinned(base, &format!("cost/{name}/words")),
        "cost/{name}/words drifted"
    );
    assert_eq!(
        c.msgs,
        pinned(base, &format!("cost/{name}/msgs")),
        "cost/{name}/msgs drifted"
    );
}

#[test]
fn the_twelve_cost_records_are_bitwise_unchanged() {
    let base = baseline();
    assert_clock_pinned(&base, "tsqr_512x16x8", run_tsqr(512, 16, 8, 7));
    assert_clock_pinned(&base, "cholqr2_512x16x8", run_cholqr2(512, 16, 8, 7));
    assert_clock_pinned(&base, "caqr1d_256x16x4_b4", run_caqr1d(256, 16, 4, 4, 7));
    assert_clock_pinned(
        &base,
        "caqr3d_96x24x4",
        run_caqr3d(96, 24, 4, Caqr3dConfig::new(12, 6), 7),
    );
}

#[test]
fn the_rank_revealing_records_are_bitwise_pinned() {
    // The new subsystem's clocks join the gate with the same contract as
    // the pre-existing records: bit-for-bit reproducible, so any drift
    // in the tournament/sketch communication pattern fails here.
    let base = baseline();
    let pivot = run_pivotqr(256, 32, 4, 7);
    assert_clock_pinned(&base, "geqp3_256x32x4", pivot);
    let rrqr = run_rrqr(512, 16, 8, 7);
    assert_clock_pinned(&base, "rrqr_512x16x8", rrqr);
    // The latency-amortization ratio derives from the same pinned clocks.
    let pivot_same = run_pivotqr(512, 16, 8, 7);
    assert_eq!(
        pivot_same.msgs / rrqr.msgs,
        pinned(&base, "ratio/pivotqr_msgs_over_rrqr_msgs"),
        "sketch-vs-tournament message amortization drifted"
    );
}

#[test]
fn the_fused_batch_records_are_bitwise_unchanged() {
    let base = baseline();
    let k = 8usize;
    let batch = run_cholqr2_batch(512, 16, 8, k, 7);
    assert_clock_pinned(&base, "cholqr2_batch8_512x16x8", batch);
    // The amortization ratio is derived from the same two pinned clocks.
    let single = run_cholqr2(512, 16, 8, 7);
    assert_eq!(
        k as f64 * single.msgs / batch.msgs,
        pinned(&base, "ratio/cholqr2_seq8_msgs_over_batch8_msgs"),
        "fused-batch message amortization drifted"
    );
}

#[test]
fn the_fault_tolerant_tsqr_records_are_bitwise_pinned() {
    // The coded-TSQR prologue joins the gate with the same contract:
    // its fault-free clock is deterministic, so the encode tree or GO
    // barrier changing its communication pattern fails here bitwise.
    let base = baseline();
    let ft = run_tsqr_ft(512, 16, 8, 1, 7);
    assert_clock_pinned(&base, "tsqr_ft_512x16x8c1", ft);
    let tsqr = run_tsqr(512, 16, 8, 7);
    assert_eq!(
        ft.words / tsqr.words,
        pinned(&base, "ratio/tsqr_ft_overhead_words"),
        "coded-TSQR bandwidth overhead drifted"
    );
    assert!(
        ft.words > tsqr.words && ft.msgs > tsqr.msgs,
        "the encode prologue must cost something"
    );
}

#[test]
fn the_updating_qr_records_are_bitwise_pinned() {
    // The streaming subsystem's charged clocks join the gate with the
    // same contract as every other record: the carry-stack appends and
    // finish replay are deterministic, so any drift in their merge or
    // communication pattern fails here bitwise.
    let base = baseline();
    assert_clock_pinned(&base, "update_512x16x8k4", run_updating(512, 16, 8, 4, 7));
}

#[test]
fn the_transport_message_ratios_are_exactly_one() {
    // The transport-fabric acceptance relation: the full clock — not
    // just messages — must be bitwise identical whichever substrate
    // moves the envelopes, because every charge happens above the
    // `Transport` boundary. The baseline stores the message ratios;
    // this test pins the whole clocks and then the ratios themselves.
    let base = baseline();
    let tsqr_ring = run_tsqr_over(Arc::new(RingTransport::default()), 512, 16, 8, 7);
    let tsqr_mpsc = run_tsqr_over(Arc::new(MpscTransport), 512, 16, 8, 7);
    assert_eq!(
        tsqr_ring, tsqr_mpsc,
        "tsqr clock diverged across transports"
    );
    assert_eq!(
        tsqr_ring.msgs / tsqr_mpsc.msgs,
        pinned(&base, "ratio/tsqr_msgs_ring_over_mpsc"),
        "tsqr ring/mpsc message ratio drifted"
    );
    let batch_ring = run_cholqr2_batch_over(Arc::new(RingTransport::default()), 512, 16, 8, 8, 7);
    let batch_mpsc = run_cholqr2_batch_over(Arc::new(MpscTransport), 512, 16, 8, 8, 7);
    assert_eq!(
        batch_ring, batch_mpsc,
        "fused-batch clock diverged across transports"
    );
    assert_eq!(
        batch_ring.msgs / batch_mpsc.msgs,
        pinned(&base, "ratio/cholqr2_batch8_msgs_ring_over_mpsc"),
        "fused-batch ring/mpsc message ratio drifted"
    );
}

#[test]
fn the_tsqr_words_ratio_is_bitwise_pinned() {
    // This ratio was gated in the baseline but never pinned here —
    // completeness pass for the SIMD/threading PR: derived from the same
    // deterministic clocks, so it must also reproduce exactly.
    let base = baseline();
    let tsqr = run_tsqr(512, 16, 8, 7);
    let cholqr2 = run_cholqr2(512, 16, 8, 7);
    assert_eq!(
        tsqr.words / cholqr2.words,
        pinned(&base, "ratio/tsqr_words_over_cholqr2_words"),
        "tsqr/cholqr2 bandwidth ratio drifted"
    );
}

#[test]
fn baseline_cost_and_ratio_records_are_exactly_the_pinned_set() {
    // Every deterministic record in the committed baseline must be
    // asserted bitwise by some test in this file: a `cost/*` or
    // `ratio/*` record that exists only in the JSON is a hole in the
    // gate (wall-clock `speedup/*` records are machine-dependent and
    // gated by `bench_gate check` instead).
    let base = baseline();
    let mut deterministic: Vec<&str> = base
        .records
        .iter()
        .map(|r| r.name.as_str())
        .filter(|n| n.starts_with("cost/") || n.starts_with("ratio/"))
        .collect();
    deterministic.sort_unstable();
    let clock_groups = [
        "tsqr_512x16x8",
        "cholqr2_512x16x8",
        "caqr1d_256x16x4_b4",
        "caqr3d_96x24x4",
        "geqp3_256x32x4",
        "rrqr_512x16x8",
        "cholqr2_batch8_512x16x8",
        "tsqr_ft_512x16x8c1",
        "update_512x16x8k4",
    ];
    let mut expected: Vec<String> = clock_groups
        .iter()
        .flat_map(|g| {
            ["flops", "words", "msgs"]
                .iter()
                .map(move |axis| format!("cost/{g}/{axis}"))
        })
        .collect();
    expected.push("ratio/pivotqr_msgs_over_rrqr_msgs".into());
    expected.push("ratio/tsqr_words_over_cholqr2_words".into());
    expected.push("ratio/cholqr2_seq8_msgs_over_batch8_msgs".into());
    expected.push("ratio/tsqr_msgs_ring_over_mpsc".into());
    expected.push("ratio/cholqr2_batch8_msgs_ring_over_mpsc".into());
    expected.push("ratio/tsqr_ft_overhead_words".into());
    expected.sort_unstable();
    assert_eq!(
        deterministic, expected,
        "baseline cost/ratio records diverged from the pinned set"
    );
    // And the wall-clock complement: the gated speedup records,
    // including the SIMD-dispatch one.
    for name in [
        "speedup/warm_executor_over_cold_512x16x8",
        "speedup/gemm_blocked_over_reference_192",
        "speedup/geqrt_blocked_over_reference_256x64",
        "speedup/geqrt_blocked_over_reference_1024x256",
        "speedup/geqrt_blocked_over_reference_16384x64",
        "speedup/trsm_right_over_reference_16384x64",
        "speedup/syrk_blocked_over_reference_16384x64",
        "speedup/gemm_simd_over_scalar_512",
        "speedup/service_pool_coalesced_over_spawn_k16",
        "speedup/streaming_append_over_refactor",
    ] {
        assert!(
            base.records.iter().any(|r| r.name == name),
            "{name} missing from BENCH_baseline.json"
        );
    }
}
