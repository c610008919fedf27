//! The `attack-fork` and `attack-owf` workloads: closed-loop attack
//! campaigns against forking servers, two worker threads, one campaign at a
//! time.
//!
//! A campaign is one `Campaign::run` call plus the export round trip of its
//! report; a request is one payload delivered to a server, as counted by
//! `CampaignReport::total_requests`.  Library defaults (stop rules, shard
//! sizes, snapshot caching) are left as they are, so a change to one of
//! them moves these numbers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use polycanary_attacks::{
    AttackKind, AttackResult, ByteByByteAttack, Campaign, CampaignReport, Deployment,
    ExhaustiveAttack, ForkingServer, FrameGeometry, OverflowOracle, RequestOutcome, SnapshotCache,
    StopRule, Verdict, VictimKey, VictimSnapshot, HIJACK_TARGET,
};
use polycanary_core::scheme::SchemeKind;

use crate::layers::{Layers, Span, Trace};
use crate::util::{export_round_trip, mix, Phase};

/// Worker threads per campaign: the benchmark host's core count.
pub const WORKERS: usize = 2;

/// Which attack workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Byte-by-byte and exhaustive campaigns with the default `Exhaustive`
    /// stop rule against SSP, P-SSP and the rewritten P-SSP-bin32 binary.
    Fork,
    /// SPRT-stopped P-SSP-OWF campaigns plus canary-reuse campaigns.
    Owf,
}

/// One campaign configuration of a workload's cycle and the verdict the
/// paper gives for it.
#[derive(Debug, Clone, Copy)]
struct Spec {
    attack: AttackKind,
    scheme: SchemeKind,
    deployment: Deployment,
    stop: StopRule,
    seeds: usize,
    expect: Verdict,
}

/// Enough byte-by-byte requests to recover all eight SSP canary bytes
/// (8 · 256) and fire the exploit.
const BBB: AttackKind = AttackKind::ByteByByte { budget: 2_049 };
const EXH: AttackKind = AttackKind::Exhaustive { budget: 512 };

/// Victims per `attack-fork` campaign, by attack and scheme: sized so every
/// campaign sends about 8,000 requests (byte-by-byte takes ~1,000 requests
/// to break an SSP victim and ~320 to give up on a P-SSP one; exhaustive
/// search always spends its 512), all below the `Exhaustive` rule's default
/// shard of 64, so each campaign runs on one of the two workers.
const FORK_SSP_BBB_VICTIMS: usize = 8;
const FORK_PSSP_BBB_VICTIMS: usize = 24;
const FORK_EXH_VICTIMS: usize = 16;
/// Victims configured per `attack-owf` campaign; SPRT settles after three.
const OWF_VICTIMS: usize = 32;

/// The campaigns a workload repeats, in order.
fn cycle(family: Family) -> Vec<Spec> {
    let fork = |attack, scheme, deployment, seeds, expect| Spec {
        attack,
        scheme,
        deployment,
        stop: StopRule::Exhaustive,
        seeds,
        expect,
    };
    let owf = |attack, scheme, expect| Spec {
        attack,
        scheme,
        deployment: Deployment::Compiler,
        stop: StopRule::sprt(),
        seeds: OWF_VICTIMS,
        expect,
    };
    let (compiler, rewriter) = (Deployment::Compiler, Deployment::BinaryRewriter);
    let (breaks, resists) = (Verdict::Breaks, Verdict::Resists);
    let (ssp, pssp, bin32, owf_scheme) =
        (SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspBin32, SchemeKind::PsspOwf);
    match family {
        Family::Fork => vec![
            fork(BBB, ssp, compiler, FORK_SSP_BBB_VICTIMS, breaks),
            fork(BBB, pssp, compiler, FORK_PSSP_BBB_VICTIMS, resists),
            fork(BBB, bin32, rewriter, FORK_PSSP_BBB_VICTIMS, resists),
            fork(EXH, ssp, compiler, FORK_EXH_VICTIMS, resists),
            fork(EXH, pssp, compiler, FORK_EXH_VICTIMS, resists),
            fork(EXH, bin32, rewriter, FORK_EXH_VICTIMS, resists),
        ],
        // Three campaigns of each kind, interleaved: sorted by time the
        // reuse campaigns (thread spawn/join-bound, under 0.5 ms) fill the
        // lowest third, exhaustive the middle and byte-by-byte the top, so
        // the median campaign is an exhaustive one and the p90 a
        // byte-by-byte one; neither is set by thread start-up.
        Family::Owf => vec![
            owf(BBB, owf_scheme, resists),
            owf(EXH, owf_scheme, resists),
            owf(AttackKind::Reuse, ssp, breaks),
            owf(BBB, owf_scheme, resists),
            owf(EXH, owf_scheme, resists),
            owf(AttackKind::Reuse, pssp, breaks),
            owf(BBB, owf_scheme, resists),
            owf(EXH, owf_scheme, resists),
            owf(AttackKind::Reuse, owf_scheme, resists),
        ],
    }
}

/// The `index`-th campaign of a run with workload seed `seed`.
fn campaign(spec: &Spec, seed: u64, index: u64) -> Campaign {
    Campaign::new(spec.attack, spec.scheme)
        .with_deployment(spec.deployment)
        .with_stop_rule(spec.stop)
        .with_seed_range(mix(seed, index), spec.seeds)
        .with_workers(WORKERS)
}

/// One set-up pass: build every victim binary of the cycle (compile, and
/// rewrite for P-SSP-bin32), boot a server from it and serve one benign
/// request.  Returns whether every server answered.
///
/// Each `Campaign::run` builds its victims again in a cache of its own, so
/// the timed phase does not use these; `setup_s` on the attack workloads is
/// what preparing the cycle's victims costs, and it moves with the compiler
/// and rewriter although the timed phase does not.
pub fn setup(family: Family, seed: u64) -> bool {
    cycle(family).iter().enumerate().all(|(index, spec)| {
        let victim = VictimSnapshot::build(VictimKey {
            scheme: spec.scheme,
            deployment: spec.deployment,
            buffer_size: 64,
            program: 0,
        });
        ForkingServer::from_snapshot(&victim, mix(seed, !(index as u64)))
            .serve(b"GET / HTTP/1.1")
            .survived()
    })
}

/// A campaign the timed phase ran, kept for the traced replay.
struct Done {
    spec: Spec,
    campaign: Campaign,
    report: CampaignReport,
    ok: bool,
}

/// What the timed phase measured.
pub struct Measured {
    pub phase: Phase,
    pub failed: u64,
    done: Vec<Done>,
}

/// How long the timed phase runs: whole cycles until a time has passed, or
/// a fixed number of cycles.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

/// The timed phase: whole cycles of campaigns, one after another, with
/// `between` run (untimed) after each cycle.  Every campaign's verdict must
/// equal the paper's and its export must round trip; a campaign that fails
/// either counts as failed.
pub fn measure(
    family: Family,
    seed: u64,
    budget: Budget,
    keep: bool,
    between: &mut dyn FnMut(),
) -> Measured {
    let specs = cycle(family);
    let mut measured = Measured { phase: Phase::default(), failed: 0, done: Vec::new() };
    let started = Instant::now();
    let mut index = 0u64;
    for round in 0.. {
        let more = match budget {
            Budget::Seconds(seconds) => started.elapsed().as_secs_f64() < seconds,
            Budget::Cycles(cycles) => round < cycles,
        };
        if !more {
            break;
        }
        for spec in &specs {
            let campaign = campaign(spec, seed, index);
            index += 1;
            let (report, exported) = measured.phase.time(|| {
                let report = campaign.run();
                let exported = export_round_trip(vec![report.record()]);
                let requests = report.total_requests();
                ((report, exported), requests)
            });
            let ok = exported.is_some() && report.verdict() == spec.expect;
            measured.failed += u64::from(!ok);
            if keep {
                measured.done.push(Done { spec: *spec, campaign, report, ok });
            }
        }
        between();
    }
    measured
}

/// An [`OverflowOracle`] over a [`ForkingServer`] that times each request
/// apart: `connect` and the worker's teardown are the fork layer, `send` the
/// VM run, and the time between two requests the attacker's own code.
struct TimedOracle<'s> {
    server: &'s mut ForkingServer,
    last: Instant,
    fork: Duration,
    send: Duration,
    attacker: Duration,
    forks: u64,
    sends: u64,
}

impl<'s> TimedOracle<'s> {
    fn new(server: &'s mut ForkingServer) -> Self {
        TimedOracle {
            server,
            last: Instant::now(),
            fork: Duration::ZERO,
            send: Duration::ZERO,
            attacker: Duration::ZERO,
            forks: 0,
            sends: 0,
        }
    }

    /// The canary-reuse attack, step by step over the public connection
    /// API so its fork and its two sends are timed apart.  It mirrors
    /// `CanaryReuseAttack::run`; the replay check proves both return the
    /// same result, recovered canary and final outcome included.
    fn reuse(&mut self, geometry: FrameGeometry) -> AttackResult {
        let scheme = self.server.scheme();
        let t0 = Instant::now();
        self.attacker += t0 - self.last;
        let mut conn = self.server.connect();
        let t1 = Instant::now();
        let (leak_outcome, leaked) = conn.send_leak(b"STATUS");
        let t2 = Instant::now();
        let (mut t3, mut t4, mut outcome) = (t2, t2, leak_outcome);
        self.sends += 1;
        let canary = geometry.filler_len..geometry.filler_len + geometry.canary_region_len;
        let recovered_canary = leaked.get(canary).map(<[u8]>::to_vec);
        if leak_outcome.survived() {
            let payload = reuse_payload(geometry, recovered_canary.as_deref());
            t3 = Instant::now();
            outcome = conn.send(&payload);
            t4 = Instant::now();
            self.sends += 1;
        }
        drop(conn);
        let t5 = Instant::now();
        self.forks += 1;
        self.fork += (t1 - t0) + (t5 - t4);
        self.send += (t2 - t1) + (t4 - t3);
        self.attacker += t3 - t2;
        self.last = t5;
        AttackResult {
            strategy: "canary-reuse",
            scheme,
            success: outcome.hijacked(),
            trials: 1,
            recovered_canary,
            final_outcome: Some(outcome),
        }
    }

    /// Closes the last request's attacker time and adds the spans to
    /// `layers`.
    fn finish(self, layers: &mut Layers) {
        let attacker = self.attacker + self.last.elapsed();
        layers.time_calls("vm.fork", self.fork, self.forks);
        layers.time_calls("vm.send", self.send, self.sends);
        layers.time_calls("attacks.attacker", attacker, 0);
        layers.count("forks", self.forks);
        layers.count("sends", self.sends);
    }
}

impl OverflowOracle for TimedOracle<'_> {
    fn attempt(&mut self, payload: &[u8]) -> RequestOutcome {
        let t0 = Instant::now();
        let mut conn = self.server.connect();
        let t1 = Instant::now();
        let outcome = conn.send(payload);
        let t2 = Instant::now();
        drop(conn);
        let t3 = Instant::now();
        self.fork += (t1 - t0) + (t3 - t2);
        self.send += t2 - t1;
        self.attacker += t0 - self.last;
        self.last = t3;
        self.forks += 1;
        self.sends += 1;
        outcome
    }

    fn trials(&self) -> u64 {
        self.server.trials()
    }
}

/// The reuse attacker's overflow: filler, the leaked canary region (zeros
/// when the leak fell short of it), a saved frame pointer and the hijack
/// target.
fn reuse_payload(geometry: FrameGeometry, canary: Option<&[u8]>) -> Vec<u8> {
    let mut payload = vec![0x41u8; geometry.filler_len];
    match canary {
        Some(region) => payload.extend_from_slice(region),
        None => payload.resize(payload.len() + geometry.canary_region_len, 0),
    }
    payload.extend_from_slice(&[0x41u8; 8]);
    payload.extend_from_slice(&HIJACK_TARGET.to_le_bytes());
    payload
}

/// Drives `attack` against `server` through the timing oracle.
fn drive_traced(
    attack: AttackKind,
    server: &mut ForkingServer,
    scheme: SchemeKind,
    layers: &mut Layers,
) -> AttackResult {
    let geometry = server.geometry();
    let mut oracle = TimedOracle::new(server);
    let result = match attack {
        AttackKind::ByteByByte { budget } => {
            ByteByByteAttack::with_budget(budget).run(&mut oracle, geometry, scheme)
        }
        AttackKind::Exhaustive { budget } => {
            ExhaustiveAttack::with_budget(budget).run(&mut oracle, geometry, scheme)
        }
        AttackKind::Reuse => oracle.reuse(geometry),
    };
    oracle.finish(layers);
    result
}

/// The traced run: a fixed number of cycles on two workers, then two
/// serial replays of exactly those campaigns' kept victims, one untraced
/// (per-victim busy time, the overhead baseline) and one traced (the
/// layer spans).  Both replays must reproduce every victim's result
/// exactly: success, request count, recovered canary and final outcome.
pub fn trace(family: Family, seed: u64, cycles: usize) -> Trace {
    let measured = measure(family, seed, Budget::Cycles(cycles), true, &mut || {});
    let mut ok: Vec<bool> = measured.done.iter().map(|done| done.ok).collect();

    let started = Instant::now();
    let mut busy = Duration::ZERO;
    for (done, ok) in measured.done.iter().zip(&mut ok) {
        let cache = SnapshotCache::new();
        for (index, run) in done.report.runs.iter().enumerate() {
            let victim = done.campaign.victim_config_at(index, run.seed);
            let t = Instant::now();
            let replayed = done.spec.attack.run_once_with(&cache, victim);
            busy += t.elapsed();
            *ok &= replayed == run.result;
        }
        *ok &= export_round_trip(vec![done.report.record()]).is_some();
    }
    let untraced = started.elapsed();

    let mut layers = Layers::default();
    let mut export_bytes = 0;
    let started = Instant::now();
    for (done, ok) in measured.done.iter().zip(&mut ok) {
        let cache = SnapshotCache::new();
        for (index, run) in done.report.runs.iter().enumerate() {
            let victim = done.campaign.victim_config_at(index, run.seed);
            let t = Instant::now();
            let snapshot = cache.get(VictimKey::of(&victim));
            layers.time("attacks.snapshot", t.elapsed());
            let t = Instant::now();
            let mut server = ForkingServer::from_snapshot(&snapshot, victim.seed);
            layers.time("attacks.boot", t.elapsed());
            let replayed = drive_traced(done.spec.attack, &mut server, victim.scheme, &mut layers);
            *ok &= replayed == run.result;
            layers.count("requests", replayed.trials);
            layers.count("successes", u64::from(replayed.success));
            layers.count("victims", 1);
        }
        layers.count("snapshot_builds", cache.builds());
        layers.count("snapshot_hits", cache.hits());
        let t = Instant::now();
        let exported = export_round_trip(vec![done.report.record()]);
        layers.time("export", t.elapsed());
        export_bytes += exported.unwrap_or(0);
        *ok &= exported.is_some();
    }
    let traced = started.elapsed();
    let failed = ok.iter().filter(|ok| !**ok).count() as u64;

    let pool_wall: Duration = measured.done.iter().map(|done| done.report.wall_time).sum();
    let kept: usize = measured.done.iter().map(|done| done.report.runs.len()).sum();
    let built: usize = measured.done.iter().map(|done| done.report.victims_built).sum();
    let requests = layers.counter("requests");
    let (fork, send, attacker) =
        (layers.span("vm.fork"), layers.span("vm.send"), layers.span("attacks.attacker"));
    let exports = layers.span("export");

    let mut metrics = BTreeMap::new();
    metrics.insert("vm.fork.ns_per_call", fork.ns_per_call());
    metrics.insert("vm.fork.calls", fork.calls as f64);
    metrics.insert("vm.send.ns_per_call", send.ns_per_call());
    metrics.insert("vm.send.calls", send.calls as f64);
    metrics.insert("attacks.attacker.ns_per_request", attacker.ns as f64 / requests as f64);
    metrics.insert("attacks.boot.ns_per_call", layers.span("attacks.boot").ns_per_call());
    metrics.insert("attacks.snapshot.builds", layers.counter("snapshot_builds") as f64);
    metrics.insert("attacks.snapshot.hits", layers.counter("snapshot_hits") as f64);
    // Per build; the span also holds the cache hits' lookups, a few tens of
    // nanoseconds each against a build's tens of microseconds.
    metrics.insert(
        "attacks.snapshot.ms",
        layers.span("attacks.snapshot").ns as f64 / 1e6 / layers.counter("snapshot_builds") as f64,
    );
    metrics.insert(
        "attacks.pool.efficiency",
        busy.as_secs_f64() / (WORKERS as f64 * pool_wall.as_secs_f64()),
    );
    metrics.insert("attacks.pool.useful_ratio", kept as f64 / built as f64);
    metrics.insert("export.us_per_call", exports.ns_per_call() / 1e3);
    metrics.insert("export.bytes", export_bytes as f64 / exports.calls as f64);
    metrics.insert("trace.overhead_ratio", untraced.as_secs_f64() / traced.as_secs_f64());
    metrics.insert("trace.coverage", layers.covered_ns() as f64 / traced.as_nanos() as f64);

    let per_request = (fork.ns + send.ns + attacker.ns) as f64 / requests as f64;
    let share = |span: Span| 100.0 * span.ns as f64 / (fork.ns + send.ns + attacker.ns) as f64;
    let notes = vec![format!(
        "request split over {requests} requests: {per_request:.0} ns/request = vm.fork {:.1} % + \
         vm.send {:.1} % + attacks.attacker {:.1} %; trace.coverage {:.3} of the traced replay",
        share(fork),
        share(send),
        share(attacker),
        metrics["trace.coverage"],
    )];
    Trace { metrics, layers, attempted: measured.done.len() as u64, failed, notes }
}
