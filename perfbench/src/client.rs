//! The benchmark's client: it drives an in-process `Service` the way
//! `treechase serve` does. Requests enter as wire lines through
//! `parse_json` / `parse_request`, submits become a `JobSpec` as the
//! serve loop's request handler builds it, and replies leave through the
//! `protocol` encoders. Every call into a crate is timed from here and,
//! in a traced run, wrapped in a span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use chase_atoms::AtomSet;
use chase_core::{certain_answers, AnswerQuery, KnowledgeBase};
use chase_engine::{ChaseConfig, ChaseOutcome, ChaseStats, ChaseVariant};
use chase_homomorphism::SearchBudget;
use treechase_service::protocol::{
    analysis_to_json, named_kb, parse_request, query_reply_to_json, rejection_to_json,
    result_to_json, Request,
};
use treechase_service::{
    add_stats, apply_admission_gate, parse_json, Admission, JobId, JobSpec, JobStatus, Json,
    QueryError, QueryReply, Service, ServiceConfig,
};

use crate::stats::Acc;
use crate::trace::Tracer;

/// Everything one thread of the benchmark measures.
pub struct Rec {
    pub tracer: Tracer,
    next_op: u64,
    /// Per-job latency, decode of the submit line to the dropped result;
    /// jobs that failed to run are infinite.
    pub job_ms: Vec<f64>,
    /// Per-query latency from when the query was due; failed queries
    /// are infinite.
    pub query_us: Vec<f64>,
    /// `submit_analyzed` latency (gate plus enqueue); rejected submits
    /// are infinite.
    pub admit_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Engine counters summed over the jobs (peaks are maxima).
    pub engine: ChaseStats,
    pub jobs: u64,
    /// Per-operation means of the layer timings and counts, by metric.
    pub layer: BTreeMap<&'static str, Acc>,
    pub deadline_hits: u64,
    pub gen_late_max_ms: f64,
    /// Spans merged in from other threads' recorders.
    pub extra_spans: Vec<crate::trace::Span>,
}

impl Rec {
    pub fn new(tracer: Tracer, op_base: u64) -> Rec {
        Rec {
            tracer,
            next_op: op_base,
            job_ms: Vec::new(),
            query_us: Vec::new(),
            admit_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            engine: ChaseStats::default(),
            jobs: 0,
            layer: BTreeMap::new(),
            deadline_hits: 0,
            gen_late_max_ms: 0.0,
            extra_spans: Vec::new(),
        }
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn add(&mut self, metric: &'static str, x: f64) {
        self.layer.entry(metric).or_default().add(x);
    }

    /// Counts one attempted operation and, on error, one failure.
    pub fn outcome(&mut self, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Folds another thread's measurements, spans included, into this
    /// one.
    pub fn merge(&mut self, mut other: Rec) {
        self.extra_spans.extend(other.take_spans());
        self.job_ms.extend(other.job_ms);
        self.query_us.extend(other.query_us);
        self.admit_ms.extend(other.admit_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.engine = add_stats(self.engine, other.engine);
        self.jobs += other.jobs;
        for (k, v) in other.layer {
            let acc = self.layer.entry(k).or_default();
            acc.sum += v.sum;
            acc.n += v.n;
        }
        self.deadline_hits += other.deadline_hits;
        self.gen_late_max_ms = self.gen_late_max_ms.max(other.gen_late_max_ms);
    }

    /// Hands over every span recorded, merged ones included.
    pub fn take_spans(&mut self) -> Vec<crate::trace::Span> {
        let mut spans = std::mem::take(&mut self.extra_spans);
        spans.extend(self.tracer.take_spans());
        spans
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A running service with one worker and the configuration its
/// admission gate reads.
pub struct Ctx {
    pub svc: Service,
    pub cfg: ServiceConfig,
}

impl Ctx {
    pub fn start() -> Ctx {
        let cfg = ServiceConfig::default();
        let svc = Service::with_config(1, cfg.clone()).expect("a stateless service starts");
        Ctx { svc, cfg }
    }
}

/// What a finished job left for the output checks.
pub struct Finished {
    pub status: JobStatus,
    pub outcome: ChaseOutcome,
    pub applications: usize,
    pub atoms: usize,
    /// The final instance, when the caller asked to keep it.
    pub instance: Option<AtomSet>,
    /// The admission gate's decision, when the gate ran.
    pub plan_variant: Option<ChaseVariant>,
    pub strategy_applied: bool,
}

/// A submitted job whose result has not been taken yet.
pub struct Pending {
    pub id: JobId,
    op: u64,
    name: String,
    started: Instant,
    submitted: Admission,
    /// The encoded submit reply, checked once the job's clock stops.
    reply: String,
}

/// Builds a `submit` wire line. `variant: None` leaves the strategy to
/// the admission gate, as a client that does not pin it would.
pub fn submit_line(
    name: &str,
    source: Source<'_>,
    variant: Option<&str>,
    max_apps: usize,
) -> String {
    let mut fields = vec![
        ("op", Json::str("submit")),
        ("name", Json::str(name)),
        ("max_apps", Json::Int(max_apps as i64)),
    ];
    match source {
        Source::Text(src) => fields.push(("source", Json::str(src))),
        Source::Kb(kb) => fields.push(("kb", Json::str(kb))),
    }
    if let Some(v) = variant {
        fields.push(("variant", Json::str(v)));
    }
    Json::obj(fields).to_string()
}

/// Where a submitted KB comes from.
pub enum Source<'a> {
    Text(&'a str),
    Kb(&'a str),
}

/// Builds a `query` wire line against a job's snapshot.
pub fn query_line(job: JobId, query: &str) -> String {
    Json::obj([
        ("op", Json::str("query")),
        ("job", Json::Int(job as i64)),
        ("query", Json::str(query)),
    ])
    .to_string()
}

/// Decodes a `submit` line into a spec, as the serve loop does.
fn decode_submit(rec: &mut Rec, op: u64, line: &str) -> Result<JobSpec, String> {
    rec.tracer.begin(op, "service.wire_decode");
    let t = Instant::now();
    let req = parse_json(line).and_then(|v| parse_request(&v));
    rec.add("service.wire_decode_us", us(t.elapsed()));
    rec.tracer.end();
    rec.tracer.begin(op, "parser.parse");
    let t = Instant::now();
    let spec = req.and_then(spec_of_request);
    rec.add("parser.parse_ms", ms(t.elapsed()));
    rec.tracer.end();
    let spec = spec?;
    rec.add("parser.atoms", spec.kb.facts.len() as f64);
    Ok(spec)
}

/// Builds the spec of a `submit` request as the serve loop's request
/// handler does.
fn spec_of_request(req: Request) -> Result<JobSpec, String> {
    let Request::Submit {
        name,
        source,
        kb,
        config,
        priority,
        submitter,
        auto_strategy,
        auto_budgets,
        ..
    } = req
    else {
        return Err("expected a submit request".to_string());
    };
    let mut spec = match (&source, &kb) {
        (Some(src), None) => JobSpec::from_text(name.unwrap_or_default(), src, *config)?,
        (None, Some(kb_name)) => JobSpec::from_kb(
            name.unwrap_or_else(|| kb_name.clone()),
            named_kb(kb_name)?,
            *config,
        ),
        _ => return Err("submit takes exactly one of `source` / `kb`".to_string()),
    };
    spec = spec.with_priority(priority);
    spec.submitter = submitter;
    spec.auto_strategy = auto_strategy;
    spec.auto_budgets = auto_budgets;
    Ok(spec)
}

/// The spec a `submit` line decodes to, untimed.
pub fn spec_of_line(line: &str) -> Result<JobSpec, String> {
    parse_json(line)
        .and_then(|v| parse_request(&v))
        .and_then(spec_of_request)
}

/// Decodes, admits and enqueues one `submit` line and encodes the
/// submit reply. The untraced path calls `submit_analyzed`; the traced
/// path calls its two halves (`apply_admission_gate`, `try_submit`)
/// so the gate gets a span of its own.
pub fn submit(ctx: &Ctx, rec: &mut Rec, line: &str) -> Result<Pending, String> {
    let op = rec.op();
    let started = Instant::now();
    rec.tracer.begin(op, "bench.job");
    let res = submit_inner(ctx, rec, op, line, started);
    if res.is_err() {
        rec.tracer.end();
        rec.job_ms.push(f64::INFINITY);
    }
    res
}

fn submit_inner(
    ctx: &Ctx,
    rec: &mut Rec,
    op: u64,
    line: &str,
    started: Instant,
) -> Result<Pending, String> {
    let mut spec = decode_submit(rec, op, line)?;
    let name = spec.name.clone();
    let rules = spec.kb.rules.clone();
    let t = Instant::now();
    let admitted = if rec.tracer.enabled() {
        rec.tracer.begin(op, "analysis.gate");
        let g = Instant::now();
        let gate = apply_admission_gate(&mut spec, &ctx.cfg);
        let gate_time = g.elapsed();
        rec.tracer.end();
        let gated = gate.as_ref().is_ok_and(|a| a.gate.is_some());
        if gated {
            rec.add("analysis.gate_ms", ms(gate_time));
            let hit = ctx.cfg.analysis_deadline.is_some_and(|d| gate_time >= d);
            rec.deadline_hits += u64::from(hit);
        }
        gate.and_then(|admission| {
            rec.tracer.begin(op, "service.submit");
            let s = Instant::now();
            let id = ctx.svc.try_submit(spec);
            rec.add("service.submit_us", us(s.elapsed()));
            rec.tracer.end();
            id.map(|id| (id, admission))
        })
    } else {
        ctx.svc.submit_analyzed(spec)
    };
    rec.admit_ms.push(if admitted.is_ok() {
        ms(t.elapsed())
    } else {
        f64::INFINITY
    });

    rec.tracer.begin(op, "service.wire_encode");
    let t = Instant::now();
    let reply = match &admitted {
        Ok((id, admission)) => {
            let mut fields = vec![
                ("type", Json::str("response")),
                ("op", Json::str("submit")),
                ("job", Json::Int(*id as i64)),
            ];
            if let Some(gate) = &admission.gate {
                fields.push(("analysis", analysis_to_json(gate, &rules)));
                fields.push(("strategy_applied", Json::Bool(admission.strategy_applied)));
                fields.push(("budgets_tightened", Json::Bool(admission.budgets_tightened)));
            }
            Json::obj(fields)
        }
        Err(rej) => rejection_to_json("submit", rej),
    };
    let encoded = reply.to_string();
    rec.add("service.wire_encode_us", us(t.elapsed()));
    rec.tracer.end();
    let (id, submitted) =
        admitted.map_err(|rej| format!("submit rejected: {encoded}: {}", rej.message))?;
    Ok(Pending {
        id,
        op,
        name,
        started,
        submitted,
        reply: encoded,
    })
}

/// Takes, encodes and drops the result of a submitted job, closing the
/// job's operation span and recording its latency.
pub fn finish(
    ctx: &Ctx,
    rec: &mut Rec,
    p: Pending,
    keep_instance: bool,
) -> Result<Finished, String> {
    let op = p.op;
    let wait_span = rec.tracer.begin(op, "service.wait");
    let res = ctx.svc.take_result(p.id);
    rec.tracer.end();
    let status = ctx.svc.status(p.id).unwrap_or(JobStatus::Failed);
    let Some(res) = res else {
        rec.tracer.end();
        rec.job_ms.push(f64::INFINITY);
        return Err(format!(
            "job {} ({}) left no result: {status:?}",
            p.id, p.name
        ));
    };
    if let Some(wait) = wait_span {
        engine_spans(rec, op, wait, &res.stats);
    }

    rec.tracer.begin(op, "service.wire_encode");
    let t = Instant::now();
    let encoded = result_to_json(p.id, &p.name, &res).to_string();
    rec.add("service.wire_encode_us", us(t.elapsed()));
    rec.tracer.end();
    let finished = Finished {
        status,
        outcome: res.outcome,
        applications: res.stats.applications,
        atoms: res.final_instance.len(),
        instance: keep_instance.then(|| res.final_instance.clone()),
        plan_variant: p
            .submitted
            .gate
            .as_ref()
            .map(|g| g.plan.recommended_variant()),
        strategy_applied: p.submitted.strategy_applied,
    };
    rec.engine = add_stats(rec.engine, res.stats);
    rec.jobs += 1;

    rec.tracer.begin(op, "service.result_drop");
    let t = Instant::now();
    drop(res);
    rec.add("service.result_drop_ms", ms(t.elapsed()));
    rec.tracer.end();
    rec.tracer.end();
    rec.job_ms.push(ms(p.started.elapsed()));
    for (what, line) in [("submit", &p.reply), ("result", &encoded)] {
        parse_json(line).map_err(|e| format!("{what} reply does not decode: {e}"))?;
    }
    Ok(finished)
}

/// Places the engine's reported phase durations inside the wait span.
fn engine_spans(rec: &mut Rec, op: u64, wait: u64, stats: &ChaseStats) {
    let Some(start) = rec.tracer.start_of(wait) else {
        return;
    };
    let chase = rec
        .tracer
        .synthetic(op, "engine.chase", wait, start, stats.wall_us * 1_000);
    rec.tracer.synthetic(
        op,
        "engine.match",
        chase,
        start,
        stats.match_time_us * 1_000,
    );
    rec.tracer.synthetic(
        op,
        "engine.core",
        chase,
        start + stats.match_time_us * 1_000,
        stats.core_time_us * 1_000,
    );
}

/// One whole job operation: submit, then take/encode/drop.
pub fn job(ctx: &Ctx, rec: &mut Rec, line: &str, keep_instance: bool) -> Result<Finished, String> {
    let pending = submit(ctx, rec, line)?;
    finish(ctx, rec, pending, keep_instance)
}

/// Sends one `query` line, due at `due`, and checks the decoded reply.
/// Its latency (failed queries: infinite) is recorded either way.
pub fn query(
    ctx: &Ctx,
    rec: &mut Rec,
    line: &str,
    due: Instant,
    check: impl FnOnce(&QueryReply) -> Result<(), String>,
) {
    let op = rec.op();
    rec.tracer.begin(op, "bench.query");
    let res = query_inner(ctx, rec, op, line).and_then(|reply| {
        rec.add("query.answers", reply.outcome.answers.len() as f64);
        // Staleness matters only for live reads: a terminated job's
        // snapshot is final.
        if let (Some(age), Some(_)) = (reply.snapshot_age_ms, reply.outcome.completeness.horizon())
        {
            rec.add("query.snapshot_age_ms", age as f64);
        }
        check(&reply)
    });
    rec.tracer.end();
    rec.query_us.push(if res.is_ok() {
        us(due.elapsed())
    } else {
        f64::INFINITY
    });
    rec.outcome(res);
}

fn query_inner(ctx: &Ctx, rec: &mut Rec, op: u64, line: &str) -> Result<QueryReply, String> {
    rec.tracer.begin(op, "service.wire_decode");
    let t = Instant::now();
    let req = parse_json(line).and_then(|v| parse_request(&v));
    rec.add("service.wire_decode_us", us(t.elapsed()));
    rec.tracer.end();
    let Request::Query {
        job: Some(id),
        query,
        node_limit,
        timeout_ms,
        ..
    } = req?
    else {
        return Err("expected a job query".to_string());
    };
    rec.tracer.begin(op, "query.call");
    let t = Instant::now();
    let reply = ctx.svc.query_job(
        id,
        &query,
        node_limit,
        timeout_ms.map(Duration::from_millis),
    );
    rec.add("query.call_us", us(t.elapsed()));
    rec.tracer.end();

    rec.tracer.begin(op, "service.wire_encode");
    let t = Instant::now();
    let encoded = match &reply {
        Ok(r) => query_reply_to_json(r).to_string(),
        Err(QueryError::Rejected(rej)) => rejection_to_json("query", rej).to_string(),
        Err(e) => e.to_string(),
    };
    rec.add("service.wire_encode_us", us(t.elapsed()));
    rec.tracer.end();
    reply.map_err(|_| format!("query failed: {encoded}"))
}

/// The `n × n` labeled grid of experiment E9 (`h`/`v` facts, `Diag` /
/// `Trans` rules), with its facts in a seeded order.
pub fn grid_source(n: usize, seed: u64) -> String {
    let mut facts = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if j + 1 < n {
                facts.push(format!("h(c{i}_{j}, c{i}_{}).", j + 1));
            }
            if i + 1 < n {
                facts.push(format!("v(c{i}_{j}, c{}_{j}).", i + 1));
            }
        }
    }
    chase_engine::prng::SplitMix64::new(seed).shuffle(&mut facts);
    let mut src = facts.join("\n");
    src.push_str("\nDiag: h(X, Y), v(Y, Z) -> d(X, Z).\nTrans: d(X, Y), d(Y, Z) -> d(X, Z).\n");
    src
}

/// Applications and final atoms of the restricted chase on the `n × n`
/// grid: one application per derived `d` atom, Σ_{m=1}^{n-1} m², on top
/// of the 2n(n−1) facts.
pub fn grid_expected(n: usize) -> (usize, usize) {
    let apps: usize = (1..n).map(|m| m * m).sum();
    (apps, apps + 2 * n * (n - 1))
}

/// The answer read of every workload: the diagonal reach of `c0_0`.
pub const REF_QUERY: &str = "?(Y) :- d(c0_0, Y)";
/// Side of the terminated reference grid job.
pub const REF_N: usize = 10;

/// The reference job every workload sets up: a terminated 10×10 grid
/// chased through the service, plus the library's certain answers to
/// [`REF_QUERY`], which every answer read is checked against.
pub struct Reference {
    pub line: String,
    pub answers: Vec<Vec<String>>,
}

pub fn reference(ctx: &Ctx, seed: u64) -> Result<Reference, String> {
    let src = grid_source(REF_N, seed);
    let line = submit_line("reference", Source::Text(&src), Some("restricted"), 4_000);
    let job = ctx.svc.submit(spec_of_line(&line)?);
    let status = ctx.svc.wait(job);
    let (apps, atoms) = grid_expected(REF_N);
    let got = ctx.svc.with_result(job, |r| {
        (r.outcome, r.stats.applications, r.final_instance.len())
    });
    if status != Some(JobStatus::Finished) || got != Some((ChaseOutcome::Terminated, apps, atoms)) {
        return Err(format!("reference grid job: {status:?} {got:?}"));
    }
    let mut kb = KnowledgeBase::from_text(&src).map_err(|e| e.to_string())?;
    let parsed =
        chase_parser::parse_query_with(&mut kb.vocab, "q", REF_QUERY).map_err(|e| e.to_string())?;
    let (atoms, vars) = parsed.disjuncts.into_iter().next().ok_or("empty query")?;
    let lib = certain_answers(
        &kb,
        &AnswerQuery::new(atoms, vars)?,
        &ChaseConfig::variant(ChaseVariant::Restricted),
    );
    if !lib.complete || lib.answers.len() != REF_N - 1 {
        return Err(format!(
            "reference certain answers: {} rows",
            lib.answers.len()
        ));
    }
    let mut answers: Vec<Vec<String>> = lib
        .answers
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| kb.vocab.const_name(c).unwrap_or("?").to_string())
                .collect()
        })
        .collect();
    answers.sort();
    Ok(Reference {
        line: query_line(job, REF_QUERY),
        answers,
    })
}

/// Checks an answer read of the reference job: complete, and exactly
/// the library's certain answers.
pub fn check_reference(reply: &QueryReply, answers: &[Vec<String>]) -> Result<(), String> {
    if reply.outcome.completeness.label() != "complete" {
        return Err(format!(
            "reference read is {}, not complete",
            reply.outcome.completeness.label()
        ));
    }
    let mut got = reply.outcome.answers.clone();
    got.sort();
    if got != answers {
        return Err(format!(
            "reference read: {} answers, certain answers have {}",
            reply.outcome.answers.len(),
            answers.len()
        ));
    }
    Ok(())
}

/// Issues `n` closed-loop answer reads of the reference job: each is
/// due when the previous reply has been checked.
pub fn reference_reads(ctx: &Ctx, rec: &mut Rec, r: &Reference, n: usize) {
    for _ in 0..n {
        query(ctx, rec, &r.line, Instant::now(), |reply| {
            check_reference(reply, &r.answers)
        });
    }
}

/// The budget the service's gate analyzes under, for replaying the
/// analyzer's two halves outside the operation.
pub fn gate_budget(cfg: &ServiceConfig) -> SearchBudget {
    let mut budget = SearchBudget::unlimited().with_node_limit(cfg.analysis_node_limit);
    if let Some(d) = cfg.analysis_deadline {
        budget = budget.with_deadline(Instant::now() + d);
    }
    budget
}
