//! `RoundTicker` feeds the span recorder's `live.*` gauges. The recorder
//! is process-wide, and every executor or engine run drives a ticker that
//! writes the same gauges, so this test has a binary of its own: nothing
//! else can write `live.*` while it runs.

use dmig_sim::progress::RoundTicker;

#[test]
fn ticker_records_obs_events() {
    dmig_obs::reset();
    dmig_obs::set_enabled(true);
    let mut t = RoundTicker::new(3);
    for _ in 0..3 {
        t.round_done(7);
    }
    let snap = dmig_obs::snapshot();
    dmig_obs::set_enabled(false);
    dmig_obs::reset();
    // Round progress only: the wall times the stall check reads stay in
    // the ticker.
    let gauges: Vec<&str> = snap.gauges.keys().map(String::as_str).collect();
    assert_eq!(
        gauges,
        [
            dmig_obs::keys::LIVE_ITEMS_DONE,
            dmig_obs::keys::LIVE_PHASE,
            dmig_obs::keys::LIVE_ROUND,
            dmig_obs::keys::SIM_PROGRESS_PCT,
        ]
    );
    assert_eq!(
        snap.gauges.get(dmig_obs::keys::SIM_PROGRESS_PCT).copied(),
        Some(100)
    );
    assert_eq!(
        snap.gauges.get(dmig_obs::keys::LIVE_PHASE).copied(),
        Some(dmig_obs::phase::SIMULATE)
    );
    assert_eq!(
        snap.gauges.get(dmig_obs::keys::LIVE_ROUND).copied(),
        Some(3)
    );
    assert_eq!(
        snap.gauges.get(dmig_obs::keys::LIVE_ITEMS_DONE).copied(),
        Some(21),
        "cumulative transfers across rounds"
    );
    assert!(
        snap.counters.is_empty() && snap.spans.is_empty(),
        "{snap:?}"
    );
}
