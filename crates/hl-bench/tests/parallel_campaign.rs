//! The parallel campaign runner must be a pure wall-clock optimisation:
//! fanning seeds across OS threads may change *when* a campaign runs,
//! never *what* it produces. For each seed, every artifact — invariant
//! report, Chrome trace export, time-series snapshot — must be
//! byte-identical to the sequential run, and the merge must preserve
//! seed order.

use hl_bench::campaign::{run_campaigns_parallel, run_campaigns_sequential};

#[test]
fn parallel_campaigns_are_byte_identical_to_sequential() {
    let seeds = [103u64, 107, 111];
    let seq = run_campaigns_sequential(&seeds);
    // Three real worker threads even on a single-core box: the
    // executor's atomic work-claiming makes seed->thread assignment
    // nondeterministic, which is exactly what must not leak into the
    // artifacts.
    let par = run_campaigns_parallel(&seeds, 3);

    assert_eq!(seq.len(), seeds.len());
    assert_eq!(par.len(), seeds.len());
    for ((a, b), &seed) in seq.iter().zip(&par).zip(&seeds) {
        assert_eq!(a.seed, seed, "sequential results out of seed order");
        assert_eq!(b.seed, seed, "parallel merge broke seed order");
        assert!(
            a.timeseries.contains("\"name\":\"fault:"),
            "seed {seed}: no fault marks; byte-identity check is vacuous"
        );
        assert!(
            a.chrome_trace.starts_with("{\"traceEvents\":["),
            "seed {seed}: export is not Chrome trace-event JSON"
        );
        assert_eq!(
            a.invariants, b.invariants,
            "seed {seed}: invariant reports diverged"
        );
        assert_eq!(
            a.chrome_trace, b.chrome_trace,
            "seed {seed}: Chrome traces diverged"
        );
        assert_eq!(
            a.timeseries, b.timeseries,
            "seed {seed}: time-series snapshots diverged"
        );
    }
    assert_eq!(seq, par, "parallel artifacts differ from sequential");
}
