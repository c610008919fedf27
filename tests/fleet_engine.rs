//! Fleet-engine guarantees, exercised through the `polycanary` facade:
//!
//! * snapshot-booted servers are bit-identical to from-scratch ones on
//!   every scheme × deployment cell (geometry, policies, leaked bytes,
//!   request outcomes, operational counters, full attack results),
//! * SPRT-settled campaigns cancel every victim not yet started: reports
//!   are byte-identical at 1/4/8 workers, and a unanimous fleet constructs
//!   exactly the victims it reports, far fewer than an exhaustive sweep
//!   would boot,
//! * a 10^5-seed fleet campaign completes with byte-identical records at
//!   any worker count,
//! * seed derivation is lazy: configuring a million-victim fleet costs
//!   nothing until a seed is actually drawn.

use polycanary::attacks::CampaignReport;
use polycanary::attacks::{
    derive_seed, AttackKind, ByteByByteAttack, Campaign, Deployment, ForkingServer, StopRule,
    VictimConfig, VictimKey, VictimSnapshot,
};
use polycanary::core::record::Record;
use polycanary::core::SchemeKind;

/// A campaign report's exported record minus the volatile timing fields
/// (`wall_ms`, `workers`) — the same scrub the CI drift check applies, and
/// exactly the portion the determinism contract promises byte-identical.
fn scrubbed_record(report: &CampaignReport) -> Record {
    report
        .record()
        .fields()
        .iter()
        .filter(|(name, _)| name != "wall_ms" && name != "workers")
        .fold(Record::new(), |rec, (name, value)| rec.field(name.clone(), value.clone()))
}

/// Boots the same victim configuration from scratch and from a pre-built
/// snapshot and drives both through the same request script, asserting
/// bit-for-bit agreement at every observation point.
fn assert_boot_equivalent(config: VictimConfig) {
    let label = format!("{} × {}", config.scheme, config.deployment.label());
    let mut fresh = ForkingServer::new(config);
    let snapshot = VictimSnapshot::build(VictimKey::of(&config));
    let mut booted = ForkingServer::from_snapshot(&snapshot, config.seed);

    assert_eq!(fresh.geometry(), booted.geometry(), "{label}: geometry");
    assert_eq!(fresh.canary_policy(), booted.canary_policy(), "{label}: policy");
    assert_eq!(fresh.scheme(), booted.scheme(), "{label}: scheme");

    // A benign request, a leak (canary bytes included) and a full smash
    // must play out identically — same outcomes, same leaked bytes.
    assert_eq!(fresh.serve(b"GET / HTTP/1.1"), booted.serve(b"GET / HTTP/1.1"), "{label}");
    let (fresh_outcome, fresh_leak) = fresh.serve_leak(b"status");
    let (booted_outcome, booted_leak) = booted.serve_leak(b"status");
    assert_eq!(fresh_outcome, booted_outcome, "{label}: leak outcome");
    assert_eq!(fresh_leak, booted_leak, "{label}: leaked bytes (canaries included)");
    let smash = vec![0x41u8; fresh.geometry().full_overwrite_len()];
    assert_eq!(fresh.serve(&smash), booted.serve(&smash), "{label}: smash outcome");
    assert_eq!(fresh.stats_record(), booted.stats_record(), "{label}: counters");
}

#[test]
fn snapshot_boot_matches_fresh_boot_on_every_scheme_deployment_cell() {
    for scheme in SchemeKind::ALL {
        for deployment in [Deployment::Compiler, Deployment::BinaryRewriter] {
            for seed in [7u64, 0xF1EE7 ^ 0xF00D] {
                assert_boot_equivalent(VictimConfig::new(scheme, seed).with_deployment(deployment));
            }
        }
    }
}

#[test]
fn snapshot_boot_preserves_full_attack_results() {
    // The strongest equivalence check: the entire byte-by-byte attack —
    // thousands of adaptive, canary-dependent requests — produces the
    // identical [`AttackResult`] against both boot paths.
    let cells = [
        (SchemeKind::Ssp, Deployment::Compiler, 3_000u64),
        (SchemeKind::Pssp, Deployment::Compiler, 2_000),
        (SchemeKind::PsspBin32, Deployment::BinaryRewriter, 2_000),
    ];
    for (scheme, deployment, budget) in cells {
        let config = VictimConfig::new(scheme, 0x5EED).with_deployment(deployment);
        let mut fresh = ForkingServer::new(config);
        let snapshot = VictimSnapshot::build(VictimKey::of(&config));
        let mut booted = ForkingServer::from_snapshot(&snapshot, config.seed);
        let geometry = fresh.geometry();
        let attack = |server: &mut ForkingServer| {
            ByteByByteAttack::with_budget(budget).run(server, geometry, scheme)
        };
        assert_eq!(attack(&mut fresh), attack(&mut booted), "{scheme} × {}", deployment.label());
        assert_eq!(fresh.stats_record(), booted.stats_record(), "{scheme}");
    }
}

#[test]
fn sprt_settlement_cancels_unscheduled_victims_at_any_worker_count() {
    let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
        .with_seed_range(0xF1EE7, 64)
        .with_stop_rule(StopRule::sprt());
    let serial = base.clone().with_workers(1).run();
    let four = base.clone().with_workers(4).run();
    let eight = base.clone().with_workers(8).run();

    // Deterministic contract: the settled prefix is identical however many
    // workers raced over the shards.
    assert_eq!(serial.runs, four.runs, "1 vs 4 workers");
    assert_eq!(serial.runs, eight.runs, "1 vs 8 workers");
    assert_eq!(scrubbed_record(&serial), scrubbed_record(&eight), "exported records");
    assert!(serial.stopped_early(), "unanimous SSP settles in 3: {serial:?}");

    // Cancellation contract: settling cancels every victim not yet
    // started, so strictly fewer victims are constructed than the
    // exhaustive sweep's 64 — at every worker count.
    let exhaustive = base.with_stop_rule(StopRule::Exhaustive).with_workers(4).run();
    assert_eq!(exhaustive.victims_built, 64);
    for (workers, report) in [(1usize, &serial), (4, &four), (8, &eight)] {
        assert!(
            report.victims_built < exhaustive.victims_built,
            "{workers} workers built {} of {}",
            report.victims_built,
            exhaustive.victims_built,
        );
        assert!(report.victims_built >= report.runs.len(), "{workers} workers");
        // The fleet is unanimous, so the SPRT horizon is exact: no victim
        // is built past the settle point.
        assert_eq!(report.victims_built, report.runs.len(), "{workers} workers");
    }
}

#[test]
fn fleet_scale_campaign_is_byte_identical_across_worker_counts() {
    let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Pssp)
        .with_seed_range(0x00DD_5EED, 100_000)
        .with_stop_rule(StopRule::sprt());
    let serial = base.clone().with_workers(1).run();
    let four = base.clone().with_workers(4).run();
    let eight = base.with_workers(8).run();
    assert_eq!(serial.runs, four.runs);
    assert_eq!(serial.runs, eight.runs);
    assert_eq!(scrubbed_record(&serial), scrubbed_record(&eight));

    assert_eq!(serial.configured_seeds, 100_000);
    assert!(serial.stopped_early(), "unanimous P-SSP fleet settles in 3");
    assert_eq!(serial.victims_cancelled(), 100_000 - serial.runs.len());
    // One snapshot configuration covers the whole uniform fleet; every
    // attacked victim past the first booted from the shared image.
    assert_eq!(serial.snapshot_configs(), 1);
    assert_eq!(serial.snapshot_reuses(), serial.runs.len() - 1);
}

#[test]
fn seed_derivation_is_lazy_and_stable_at_fleet_scale() {
    // Configuring a million-victim fleet materializes nothing: seeds are
    // derived on demand, and any index agrees with the documented
    // derivation function.
    let fleet =
        Campaign::new(AttackKind::Reuse, SchemeKind::Pssp).with_seed_range(0xBA5E, 1_000_000);
    assert_eq!(fleet.seed_count(), 1_000_000);
    for index in [0usize, 1, 4_095, 65_536, 999_999] {
        assert_eq!(fleet.seed_at(index), derive_seed(0xBA5E, index as u64), "index {index}");
    }
    // Explicit seed lists keep their verbatim semantics.
    let explicit = Campaign::new(AttackKind::Reuse, SchemeKind::Pssp).with_seeds([3, 1, 4]);
    assert_eq!(explicit.seed_count(), 3);
    assert_eq!(explicit.seed_at(1), 1);
    assert_eq!(explicit.seeds(), vec![3, 1, 4]);
}
