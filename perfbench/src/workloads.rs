//! The four workloads. Each sets up a service and its inputs from the
//! seed, then runs operations until its time is up, checking every
//! output it gets back.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use chase_atoms::{Atom, AtomSet, Term, Vocabulary};
use chase_engine::prng::SplitMix64;
use chase_engine::ChaseOutcome;
use chase_kbs::random::{random_instance, random_linear_ruleset, InstanceConfig};
use treechase_service::protocol::{parse_variant, variant_name};
use treechase_service::JobStatus;

use crate::client::{self, Ctx, Rec, Reference, Source};
use crate::trace::Tracer;

pub const NAMES: [&str; 4] = [
    "grid-restricted",
    "staircase-core",
    "elevator-live",
    "admission-mix",
];

/// Side of the `grid-restricted` grid.
const GRID_N: usize = 16;
/// Application budget of a `staircase-core` job.
const STAIRCASE_APPS: usize = 90;
/// Application budget of an `elevator-live` writer job.
const ELEVATOR_APPS: usize = 1_500;
/// Open-loop read rate of `elevator-live`, queries per second.
const READ_RATE: f64 = 400.0;
/// Application budget pinned on every `admission-mix` submit.
const ADMIT_APPS: usize = 60;
/// Random KBs per round of `admission-mix`.
const RANDOM_PER_ROUND: usize = 16;
/// Closed-loop reference reads after each job of the chase workloads.
const READS_PER_JOB: usize = 300;
/// Closed-loop reference reads after each `admission-mix` job.
const READS_PER_ADMIT: usize = 30;

const STAIRCASE_TC: &str = include_str!("../../testdata/staircase.tc");
const TESTDATA: [(&str, &str); 5] = [
    ("elevator.tc", include_str!("../../testdata/elevator.tc")),
    ("family.tc", include_str!("../../testdata/family.tc")),
    (
        "reachability.tc",
        include_str!("../../testdata/reachability.tc"),
    ),
    ("staircase.tc", STAIRCASE_TC),
    (
        "transitive.tc",
        include_str!("../../testdata/transitive.tc"),
    ),
];

/// Submits per group of `admit_mean_ms` on the workloads whose jobs
/// are all alike.
const ADMIT_GROUP: usize = 5;

/// A set-up workload: the running service, its reference job and the
/// workload's generated submit lines.
pub struct Setup {
    pub ctx: Ctx,
    pub reference: Reference,
    pub lines: Vec<String>,
    /// Submits per group of `admit_mean_ms`: a whole round on
    /// `admission-mix`, so that every group holds the same KBs.
    pub admit_group: usize,
}

/// Generates the workload's inputs, starts the service and runs the
/// reference job.
pub fn setup(workload: &str, seed: u64) -> Result<Setup, String> {
    let lines = match workload {
        "grid-restricted" => vec![client::submit_line(
            "grid16",
            Source::Text(&client::grid_source(GRID_N, seed)),
            Some("restricted"),
            4_000,
        )],
        "staircase-core" => vec![client::submit_line(
            "staircase",
            Source::Text(STAIRCASE_TC),
            Some("core"),
            STAIRCASE_APPS,
        )],
        "elevator-live" => vec![client::submit_line(
            "elevator",
            Source::Kb("elevator"),
            Some("restricted"),
            ELEVATOR_APPS,
        )],
        "admission-mix" => admission_lines(seed),
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                NAMES.join(", ")
            ))
        }
    };
    let admit_group = if workload == "admission-mix" {
        lines.len()
    } else {
        ADMIT_GROUP
    };
    let ctx = Ctx::start();
    let reference = client::reference(&ctx, seed)?;
    Ok(Setup {
        ctx,
        reference,
        lines,
        admit_group,
    })
}

/// Runs one unmeasured job of the workload and a few reads, so that
/// the allocator holds the job's working set and lazy state is built
/// before the clock starts. Only its failures are kept.
pub fn warm_up(s: &Setup, rec: &mut Rec) {
    let mut warm = Rec::new(Tracer::new(false, Instant::now(), 0), 1 << 48);
    let res = client::job(&s.ctx, &mut warm, &s.lines[0], false).map(|_| ());
    warm.outcome(res);
    client::reference_reads(&s.ctx, &mut warm, &s.reference, 50);
    rec.attempted += warm.attempted;
    rec.failed += warm.failed;
    rec.errors.extend(warm.errors);
}

/// Runs the workload until `deadline`; returns the measured window.
pub fn run(workload: &str, seed: u64, s: &Setup, rec: &mut Rec, deadline: Instant) -> Duration {
    let start = Instant::now();
    match workload {
        "grid-restricted" => closed_loop(s, rec, deadline, false, |f| {
            let (apps, atoms) = client::grid_expected(GRID_N);
            expect(f.status == JobStatus::Finished, || {
                format!("status {:?}", f.status)
            })?;
            expect(f.outcome == ChaseOutcome::Terminated, || {
                format!("outcome {:?}", f.outcome)
            })?;
            expect(f.applications == apps && f.atoms == atoms, || {
                format!(
                    "{} applications / {} atoms, expected {apps} / {atoms}",
                    f.applications, f.atoms
                )
            })
        }),
        "staircase-core" => closed_loop(s, rec, deadline, true, |f| {
            expect(f.status == JobStatus::Finished, || {
                format!("status {:?}", f.status)
            })?;
            expect(f.applications == STAIRCASE_APPS, || {
                format!("{} applications, expected {STAIRCASE_APPS}", f.applications)
            })?;
            let instance = f.instance.as_ref().ok_or("no final instance kept")?;
            expect(chase_homomorphism::is_core(instance), || {
                format!("final instance of {} atoms is not a core", instance.len())
            })
        }),
        "elevator-live" => elevator_live(s, rec, deadline),
        _ => admission_mix(s, rec, deadline, seed),
    }
    start.elapsed()
}

fn expect(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Jobs back to back from one thread, each followed by
/// [`READS_PER_JOB`] closed-loop answer reads of the reference job.
/// `keep_instance` hands the final instance to `check`.
fn closed_loop(
    s: &Setup,
    rec: &mut Rec,
    deadline: Instant,
    keep_instance: bool,
    check: impl Fn(&client::Finished) -> Result<(), String>,
) {
    while Instant::now() < deadline {
        let res = client::job(&s.ctx, rec, &s.lines[0], keep_instance).and_then(|f| check(&f));
        rec.outcome(res);
        client::reference_reads(&s.ctx, rec, &s.reference, READS_PER_JOB);
    }
}

/// Writer jobs back to back on this thread; a reader thread sends
/// queries in an open loop at [`READ_RATE`], alternating a boolean live
/// read of the newest writer with an answer read of the reference job.
fn elevator_live(s: &Setup, rec: &mut Rec, deadline: Instant) {
    const LIVE_QUERY: &str = "?- c(X), h(X, Y)";
    let live = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let origin = rec.tracer.origin();
    let trace_on = rec.tracer.enabled();
    let reader_rec = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut r = Rec::new(Tracer::new(trace_on, origin, 1), 1 << 32);
            // The first live read waits for the first writer snapshot.
            while live.load(Ordering::Acquire) == 0 && !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let period = Duration::from_secs_f64(1.0 / READ_RATE);
            let start = Instant::now();
            for k in 0u32.. {
                let due = start + period * k;
                if due >= deadline || stop.load(Ordering::Acquire) {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                } else {
                    r.gen_late_max_ms = r.gen_late_max_ms.max((now - due).as_secs_f64() * 1e3);
                }
                if k % 2 == 0 {
                    let line = client::query_line(live.load(Ordering::Acquire), LIVE_QUERY);
                    client::query(&s.ctx, &mut r, &line, due, |reply| {
                        expect(reply.outcome.completeness.label() == "sound-prefix", || {
                            format!("live read is {}", reply.outcome.completeness.label())
                        })?;
                        expect(reply.outcome.entailed(), || {
                            "live read not entailed".to_string()
                        })
                    });
                } else {
                    client::query(&s.ctx, &mut r, &s.reference.line, due, |reply| {
                        client::check_reference(reply, &s.reference.answers)
                    });
                }
            }
            r
        });
        while Instant::now() < deadline {
            let res = client::submit(&s.ctx, rec, &s.lines[0]).and_then(|pending| {
                // Point the reader at this writer once its first
                // snapshot is published; until then the previous
                // (budget-stopped, still sound-prefix) writer serves.
                if wait_for_snapshot(&s.ctx, pending.id) {
                    live.store(pending.id, Ordering::Release);
                }
                client::finish(&s.ctx, rec, pending, false)
            });
            let res = res.and_then(|f| {
                expect(f.status == JobStatus::Finished, || {
                    format!("status {:?}", f.status)
                })?;
                expect(f.applications == ELEVATOR_APPS, || {
                    format!("{} applications, expected {ELEVATOR_APPS}", f.applications)
                })
            });
            let failed = res.is_err();
            rec.outcome(res);
            if failed {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    rec.merge(reader_rec);
}

/// Waits until job `id` has published a snapshot; false when the job
/// ended without one.
fn wait_for_snapshot(ctx: &Ctx, id: u64) -> bool {
    loop {
        let listed = ctx.svc.list().into_iter().find(|row| row.id == id);
        match listed {
            Some(row) if row.snapshot_age_ms.is_some() => return true,
            Some(row) if !row.status.is_terminal() => {
                std::thread::sleep(Duration::from_millis(1));
            }
            _ => return false,
        }
    }
}

/// One round of `admission-mix`: the five `testdata/` programs, both
/// built-in KBs and [`RANDOM_PER_ROUND`] random linear KBs. None pins a
/// variant, so the admission gate runs in full.
///
/// The random KBs' rules and atoms come from the fixed generator seeds
/// `0..RANDOM_PER_ROUND`; the workload seed orders their facts (and, in
/// [`admission_mix`], the submits of each round). Every seed thus
/// submits the same structures. Drawn per seed, about a quarter of the
/// structures ran the analysis into its 2 s deadline, so a run's
/// admission mean was a sample of a few such hits and moved with the
/// seed rather than with the gate.
fn admission_lines(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    let mut lines: Vec<String> = TESTDATA
        .iter()
        .map(|(name, src)| client::submit_line(name, Source::Text(src), None, ADMIT_APPS))
        .chain(
            ["staircase", "elevator"]
                .iter()
                .map(|kb| client::submit_line(kb, Source::Kb(kb), None, ADMIT_APPS)),
        )
        .collect();
    for i in 0..RANDOM_PER_ROUND as u64 {
        let src = random_kb_source(i, &mut rng);
        lines.push(client::submit_line(
            &format!("random-{i}"),
            Source::Text(&src),
            None,
            ADMIT_APPS,
        ));
    }
    lines
}

/// A random linear KB (5 rules, 12 atoms) from generator seed `kb_seed`
/// as program text, its facts in an order drawn from `rng`. Nulls of the
/// instance become variables of one fact statement.
fn random_kb_source(kb_seed: u64, rng: &mut SplitMix64) -> String {
    let mut vocab = Vocabulary::new();
    let rules = random_linear_ruleset(&mut vocab, 5, kb_seed);
    let cfg = InstanceConfig {
        atoms: 12,
        ..InstanceConfig::default()
    };
    let facts = random_instance(&mut vocab, &cfg, kb_seed);
    let mut atoms: Vec<String> = facts.iter().map(|a| atom_text(&vocab, a)).collect();
    rng.shuffle(&mut atoms);
    let mut src = atoms.join(", ");
    src.push_str(".\n");
    for (_, rule) in rules.iter() {
        let _ = writeln!(
            src,
            "{}: {} -> {}.",
            rule.name(),
            atoms_text(&vocab, rule.body()),
            atoms_text(&vocab, rule.head())
        );
    }
    src
}

fn atom_text(vocab: &Vocabulary, atom: &Atom) -> String {
    let args: Vec<String> = atom
        .args()
        .iter()
        .map(|t| match t {
            Term::Const(c) => vocab.const_name(*c).unwrap_or("k").to_string(),
            Term::Var(v) => format!("V{}", v.raw()),
        })
        .collect();
    format!("{}({})", vocab.pred_name(atom.pred()), args.join(", "))
}

fn atoms_text(vocab: &Vocabulary, atoms: &AtomSet) -> String {
    let texts: Vec<String> = atoms
        .sorted_atoms()
        .iter()
        .map(|a| atom_text(vocab, a))
        .collect();
    texts.join(", ")
}

/// Unpinned submits back to back, each followed by closed-loop reads,
/// in whole rounds: a round started before the deadline is finished, so
/// every run submits each KB of the round equally often. A traced run
/// also replays the analyzer's static report and dynamic probes outside
/// the operation, under the service's gate budget, to split the gate's
/// time between them.
fn admission_mix(s: &Setup, rec: &mut Rec, deadline: Instant, seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let mut order: Vec<&String> = s.lines.iter().collect();
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        for line in &order {
            let res = client::job(&s.ctx, rec, line, false).and_then(|f| {
                expect(f.status == JobStatus::Finished, || {
                    format!("status {:?}", f.status)
                })?;
                expect(f.strategy_applied, || {
                    "admission applied no strategy".to_string()
                })?;
                let v = f.plan_variant.ok_or("admission ran no gate")?;
                expect(parse_variant(variant_name(v)) == Ok(v), || {
                    format!("invalid plan variant {v:?}")
                })
            });
            rec.outcome(res);
            if rec.tracer.enabled() {
                replay_analysis(s, rec, line);
            }
            client::reference_reads(&s.ctx, rec, &s.reference, READS_PER_ADMIT);
        }
    }
}

fn replay_analysis(s: &Setup, rec: &mut Rec, line: &str) {
    let Ok(spec) = client::spec_of_line(line) else {
        return;
    };
    let t = Instant::now();
    let _ = chase_analysis::analyze_with_budget(&spec.kb.rules, &client::gate_budget(&s.ctx.cfg));
    rec.add("analysis.report_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let _ = chase_core::classes::probe_classes_budgeted(
        &spec.kb,
        s.ctx.cfg.analysis_probe,
        &client::gate_budget(&s.ctx.cfg),
    );
    rec.add("analysis.probes_ms", t.elapsed().as_secs_f64() * 1e3);
}
