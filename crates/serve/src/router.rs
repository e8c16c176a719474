//! The router: one per daemon, shared by every transport.
//!
//! A request's life: the transport decodes it, [`Router::route`] maps
//! its context fingerprint to a shard ([`crate::shard::shard_for`]),
//! probes that shard's response memo (a warm repeat answers without
//! ever touching the queue), and otherwise submits the job to the
//! shard's bounded queue and awaits the reply. Admin requests are
//! answered inline — the admin plane must work even when every data
//! plane queue is jammed.
//!
//! The router owns everything genuinely global: the knowledge base,
//! the aggregate request counters, the observability registry, and the
//! drain flag. Shards own everything per-context: engines, queues,
//! workers.

use crate::engine::{
    fingerprint_for, memoized_form, run_characterize, run_compile, run_search, EnginePool, MemoKey,
};
use crate::proto::{
    AdminRequest, AdminResponse, ErrorKind, ErrorResponse, JobContext, Request, Response,
    StatsResponse, PROTOCOL_VERSION,
};
use crate::server::ServeConfig;
use crate::shard::{shard_for, Job, PushError, Shard};
use ic_kb::{KnowledgeBase, MetricsRecord};
use ic_obs::{Registry, ServiceStats, Snapshot};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic aggregate counters for `Admin(Stats)` / `Admin(Metrics)`.
#[derive(Default)]
pub(crate) struct Agg {
    compile_requests: AtomicU64,
    search_requests: AtomicU64,
    characterize_requests: AtomicU64,
    busy_rejections: AtomicU64,
    /// Requests refused because the server was draining for shutdown.
    /// Counted separately from `busy_rejections` (the legacy stats
    /// surface documents that field as queue-full only); the unified
    /// snapshot reports the sum as `requests_rejected`.
    drain_rejections: AtomicU64,
    deadline_cancellations: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    /// EWMA of service time in microseconds (backoff hint input).
    service_ewma_us: AtomicU64,
}

impl Agg {
    fn observe_service(&self, elapsed: Duration) {
        let us = elapsed.as_micros() as u64;
        let old = self.service_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (old * 7 + us) / 8 };
        self.service_ewma_us.store(new, Ordering::Relaxed);
    }

    /// Backoff hint for `Busy` rejections: roughly the time for the hot
    /// shard's queue to drain at recent service rates, floored at 50ms.
    fn retry_after_ms(&self, queue_depth: usize, workers: usize) -> u64 {
        let per_job_ms = self.service_ewma_us.load(Ordering::Relaxed) / 1000;
        (per_job_ms * queue_depth as u64 / workers.max(1) as u64).max(50)
    }
}

/// Shared state of a running server — see the module docs for the
/// division of labor between router and shards.
pub struct Router {
    pub(crate) config: ServeConfig,
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) agg: Agg,
    /// Daemon-level instruments (queue/service latency histograms,
    /// per-shard depth gauges); engines carry their own slices.
    pub(crate) obs: Registry,
    pub(crate) kb: Mutex<KnowledgeBase>,
    /// True once shutdown begins: listeners stop accepting, queues
    /// reject new jobs, workers exit when drained.
    draining: AtomicBool,
    /// Open client connections (any transport) — drained with a grace
    /// period on shutdown so final responses reach their clients.
    pub(crate) connections: AtomicU64,
    started: Instant,
}

impl Router {
    pub(crate) fn new(config: ServeConfig, kb: KnowledgeBase) -> Arc<Router> {
        let shards = (0..config.shards.max(1))
            .map(|i| {
                Arc::new(Shard::new(
                    i,
                    EnginePool::with_config(config.engine_config()),
                    config.queue_capacity,
                ))
            })
            .collect();
        Arc::new(Router {
            config,
            shards,
            agg: Agg::default(),
            obs: Registry::new(),
            kb: Mutex::new(kb),
            draining: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// Spawn every shard's worker threads. OS threads, not async tasks:
    /// jobs are CPU-bound (simulation, search) and may fan out over
    /// rayon internally — they must never stall the reactor.
    pub(crate) fn spawn_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        for shard in &self.shards {
            for _ in 0..self.config.workers.max(1) {
                let router = self.clone();
                let shard = shard.clone();
                handles.push(std::thread::spawn(move || {
                    while let Some(job) = shard.pop(&router.draining) {
                        router.execute(&shard, job);
                    }
                }));
            }
        }
        handles
    }

    /// Begin graceful shutdown (idempotent).
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.notify_all();
        }
    }

    /// True once shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Route one decoded request from a connection task. Fast path
    /// first: a repeat of a memoized request on a warm shard is
    /// answered here, on the connection task, without queue or worker.
    pub async fn route(&self, request: Request) -> Response {
        if let Request::Admin(req) = &request {
            return self.admin(req);
        }
        if self.is_draining() {
            self.agg.drain_rejections.fetch_add(1, Ordering::Relaxed);
            return Response::Error(ErrorResponse::new(
                ErrorKind::ShuttingDown,
                "server is draining for shutdown",
            ));
        }
        let now = Instant::now();
        let ctx = match request_ctx(&request) {
            Some(ctx) => ctx,
            None => return ErrorResponse::bad_request("admin requests are not routable"),
        };
        let fingerprint = match fingerprint_for(ctx) {
            Ok(fp) => fp,
            Err(e) => return self.error_response(e),
        };
        let shard = &self.shards[shard_for(&fingerprint, self.shards.len())];

        // Fast path: the shard has a warm engine and has answered this
        // exact request before — reply from the memo, zero queueing.
        if let Some(engine) = shard.engines.get(&fingerprint) {
            if let Some(key) = MemoKey::for_request(&request, engine.predict.is_some()) {
                if let Some(response) = engine.memo.get(&key) {
                    shard.fast_path_hits.fetch_add(1, Ordering::Relaxed);
                    self.count_request(&request);
                    self.obs
                        .histogram("serve.service_us")
                        .record(now.elapsed().as_micros() as u64);
                    return response;
                }
            }
        }

        let deadline = self.effective_deadline(ctx, now);
        let (tx, rx) = tokio::sync::oneshot::channel();
        let job = Job {
            request,
            enqueued: now,
            deadline,
            reply: tx,
        };
        match shard.push(job, self.is_draining()) {
            Ok(()) => match rx.await {
                Ok(resp) => resp,
                Err(_) => {
                    self.agg.drain_rejections.fetch_add(1, Ordering::Relaxed);
                    Response::Error(ErrorResponse::new(
                        ErrorKind::ShuttingDown,
                        "server shut down before the job ran",
                    ))
                }
            },
            Err(PushError::Full) => {
                self.agg.busy_rejections.fetch_add(1, Ordering::Relaxed);
                Response::Error(
                    ErrorResponse::new(
                        ErrorKind::Busy,
                        format!(
                            "shard {} queue full ({} jobs)",
                            shard.index,
                            shard.capacity()
                        ),
                    )
                    .with_retry_after(self.agg.retry_after_ms(shard.depth(), self.config.workers)),
                )
            }
            Err(PushError::ShuttingDown) => {
                self.agg.drain_rejections.fetch_add(1, Ordering::Relaxed);
                Response::Error(ErrorResponse::new(
                    ErrorKind::ShuttingDown,
                    "server is draining for shutdown",
                ))
            }
        }
    }

    fn count_request(&self, request: &Request) {
        match request {
            Request::Compile(_) => self.agg.compile_requests.fetch_add(1, Ordering::Relaxed),
            Request::Search(_) => self.agg.search_requests.fetch_add(1, Ordering::Relaxed),
            Request::Characterize(_) => self
                .agg
                .characterize_requests
                .fetch_add(1, Ordering::Relaxed),
            Request::Admin(_) => 0,
        };
    }

    fn effective_deadline(&self, ctx: &JobContext, now: Instant) -> Option<Instant> {
        let ms = if ctx.deadline_ms != 0 {
            ctx.deadline_ms
        } else {
            self.config.default_deadline_ms
        };
        (ms != 0).then(|| now + Duration::from_millis(ms))
    }

    /// Execute one data-plane job (already popped by a shard worker).
    fn execute(&self, shard: &Shard, job: Job) {
        let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        self.obs
            .histogram("serve.queue_us")
            .record(job.enqueued.elapsed().as_micros() as u64);
        // Cancelled while queued?
        if let Some(d) = job.deadline {
            if Instant::now() > d {
                self.agg
                    .deadline_cancellations
                    .fetch_add(1, Ordering::Relaxed);
                shard.cancelled.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Response::Error(ErrorResponse::new(
                    ErrorKind::DeadlineExceeded,
                    format!("deadline elapsed after {queue_ms:.0}ms in queue"),
                )));
                return;
            }
        }
        let t0 = Instant::now();
        let response = match &job.request {
            Request::Compile(req) => match shard.engines.get_or_create(&req.ctx, &self.kb) {
                Ok(engine) => match run_compile(&engine, req, queue_ms) {
                    Ok(r) => {
                        self.agg.compile_requests.fetch_add(1, Ordering::Relaxed);
                        self.memoize(&engine, &job.request, Response::Compile(r))
                    }
                    Err(e) => self.cancel_counted(shard, e),
                },
                Err(e) => self.cancel_counted(shard, e),
            },
            Request::Search(req) => match shard.engines.get_or_create(&req.ctx, &self.kb) {
                Ok(engine) => match run_search(&engine, req, job.deadline, queue_ms) {
                    Ok(r) => {
                        self.agg.search_requests.fetch_add(1, Ordering::Relaxed);
                        self.memoize(&engine, &job.request, Response::Search(r))
                    }
                    Err(e) => self.cancel_counted(shard, e),
                },
                Err(e) => self.cancel_counted(shard, e),
            },
            Request::Characterize(req) => match shard.engines.get_or_create(&req.ctx, &self.kb) {
                Ok(engine) => match run_characterize(&engine, queue_ms) {
                    Ok(r) => {
                        self.agg
                            .characterize_requests
                            .fetch_add(1, Ordering::Relaxed);
                        self.memoize(&engine, &job.request, Response::Characterize(r))
                    }
                    Err(e) => self.cancel_counted(shard, e),
                },
                Err(e) => self.cancel_counted(shard, e),
            },
            // Admin requests never enter a queue.
            Request::Admin(_) => ErrorResponse::bad_request("admin requests are not queueable"),
        };
        shard.executed.fetch_add(1, Ordering::Relaxed);
        self.agg.observe_service(t0.elapsed());
        self.obs
            .histogram("serve.service_us")
            .record(t0.elapsed().as_micros() as u64);
        // A disconnected client is not an error — the work (and the
        // warm cache it produced) is still valuable.
        let _ = job.reply.send(response);
    }

    /// Record a successful response in the engine's memo (in its
    /// deterministic warm form) so repeats take the fast path.
    fn memoize(
        &self,
        engine: &crate::engine::Engine,
        request: &Request,
        response: Response,
    ) -> Response {
        if let Some(key) = MemoKey::for_request(request, engine.predict.is_some()) {
            engine.memo.put(key, memoized_form(&response));
        }
        response
    }

    fn cancel_counted(&self, shard: &Shard, e: ErrorResponse) -> Response {
        if e.kind == ErrorKind::DeadlineExceeded {
            shard.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        self.error_response(e)
    }

    pub(crate) fn error_response(&self, e: ErrorResponse) -> Response {
        match e.kind {
            ErrorKind::DeadlineExceeded => {
                self.agg
                    .deadline_cancellations
                    .fetch_add(1, Ordering::Relaxed);
            }
            ErrorKind::BadRequest => {
                self.agg.bad_requests.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        Response::Error(e)
    }

    /// Every resident engine across shards, in fingerprint order.
    fn all_engines(&self) -> Vec<Arc<crate::engine::Engine>> {
        let mut engines: Vec<_> = self
            .shards
            .iter()
            .flat_map(|s| s.engines.engines())
            .collect();
        engines.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        engines
    }

    fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.depth()).sum()
    }

    fn engine_count(&self) -> usize {
        self.shards.iter().map(|s| s.engines.len()).sum()
    }

    /// Persist every engine's eval-cache snapshot and the current
    /// observability snapshots into the knowledge base and save it to
    /// the configured store. Returns entries persisted (0 with no store
    /// configured — snapshots still merge into the in-memory KB so a
    /// later flush with a store catches up).
    pub fn flush(&self) -> u64 {
        let total: u64 = self
            .shards
            .iter()
            .map(|s| s.engines.flush_to_kb(&self.kb))
            .sum();
        self.maybe_retrain();
        self.persist_metrics();
        if let Some(path) = &self.config.kb_path {
            if let Err(e) = self.kb.lock().save(path) {
                eprintln!("ic-serve: persisting {}: {e}", path.display());
                return 0;
            }
        }
        total
    }

    /// Online model refresh: after write-through, give every predicting
    /// engine a chance to retrain on the knowledge base it just fed.
    fn maybe_retrain(&self) {
        if !self.config.predict {
            return;
        }
        let unix_ms = unix_ms_now();
        let mut kb = self.kb.lock();
        for e in self.all_engines() {
            if e.maybe_retrain(&mut kb, unix_ms) {
                eprintln!(
                    "ic-serve: retrained cost model v{} for {}",
                    e.predict.as_ref().map_or(0, |p| p.model_version()),
                    e.fingerprint
                );
            }
        }
    }

    /// Upsert the daemon-wide and per-engine observability snapshots
    /// into the in-memory knowledge base (written out by [`Self::flush`]
    /// and the periodic metrics task).
    fn persist_metrics(&self) {
        let unix_ms = unix_ms_now();
        let aggregate = self.metrics_snapshot();
        let mut kb = self.kb.lock();
        for e in self.all_engines() {
            kb.upsert_metrics(MetricsRecord {
                context: e.fingerprint.clone(),
                unix_ms,
                snapshot: e.metrics_snapshot(),
            });
        }
        kb.upsert_metrics(MetricsRecord {
            context: aggregate.context.clone(),
            unix_ms,
            snapshot: aggregate,
        });
    }

    /// The unified observability snapshot: daemon request accounting,
    /// per-shard queue/execution stats, every engine's cache stats and
    /// per-pass profiling rows, and the registry's instruments — the
    /// exact [`Snapshot`] schema that `icc --metrics-json` prints.
    pub fn metrics_snapshot(&self) -> Snapshot {
        // Refresh the per-shard depth gauges first so they land in the
        // registry dump alongside the histograms.
        for s in &self.shards {
            self.obs
                .gauge(&format!("serve.shard{}.queue_depth", s.index))
                .set(s.depth() as f64);
        }
        let mut snap = Snapshot::for_context("ic-serve");
        self.obs.snapshot_into(&mut snap);
        snap.service = ServiceStats {
            compile_requests: self.agg.compile_requests.load(Ordering::Relaxed),
            search_requests: self.agg.search_requests.load(Ordering::Relaxed),
            characterize_requests: self.agg.characterize_requests.load(Ordering::Relaxed),
            requests_rejected: self
                .agg
                .busy_rejections
                .load(Ordering::Relaxed)
                .saturating_add(self.agg.drain_rejections.load(Ordering::Relaxed)),
            requests_cancelled: self.agg.deadline_cancellations.load(Ordering::Relaxed),
            bad_requests: self.agg.bad_requests.load(Ordering::Relaxed),
            queue_depth: self.queue_depth() as u64,
            engines: self.engine_count() as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
        };
        snap.shards = self.shards.iter().map(|s| s.stats()).collect();
        for e in self.all_engines() {
            snap.merge(&e.metrics_snapshot());
        }
        snap
    }

    pub(crate) fn stats(&self) -> StatsResponse {
        let mut s = StatsResponse {
            protocol_version: PROTOCOL_VERSION,
            compile_requests: self.agg.compile_requests.load(Ordering::Relaxed),
            search_requests: self.agg.search_requests.load(Ordering::Relaxed),
            characterize_requests: self.agg.characterize_requests.load(Ordering::Relaxed),
            busy_rejections: self.agg.busy_rejections.load(Ordering::Relaxed),
            deadline_cancellations: self.agg.deadline_cancellations.load(Ordering::Relaxed),
            bad_requests: self.agg.bad_requests.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            engines: self.engine_count(),
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
            ..Default::default()
        };
        for e in self.all_engines() {
            let ev = e.eval.stats();
            let cv = e.eval.inner().compile_stats();
            s.eval_hits += ev.hits;
            s.eval_misses += ev.misses;
            s.eval_entries += ev.entries as u64;
            s.compile_hits += cv.hits;
            s.compile_misses += cv.misses;
        }
        s
    }

    /// Answer an admin request inline.
    fn admin(&self, req: &AdminRequest) -> Response {
        match req {
            AdminRequest::Stats => Response::Stats(self.stats()),
            AdminRequest::Metrics => Response::Metrics(Box::new(self.metrics_snapshot())),
            AdminRequest::Flush => Response::Admin(AdminResponse {
                action: "flush".into(),
                persisted_entries: self.flush(),
                dropped_entries: 0,
            }),
            AdminRequest::Compact {
                max_entries_per_context,
            } => {
                if *max_entries_per_context == 0 {
                    return self.error_response(ErrorResponse::new(
                        ErrorKind::BadRequest,
                        "max_entries_per_context must be >= 1",
                    ));
                }
                // Write through first so compaction ranks the freshest
                // entries, then trim and persist the trimmed store.
                let persisted: u64 = self
                    .shards
                    .iter()
                    .map(|s| s.engines.flush_to_kb(&self.kb))
                    .sum();
                let report = self.kb.lock().compact(*max_entries_per_context);
                self.persist_metrics();
                if let Some(path) = &self.config.kb_path {
                    if let Err(e) = self.kb.lock().save(path) {
                        eprintln!("ic-serve: persisting {}: {e}", path.display());
                    }
                }
                Response::Admin(AdminResponse {
                    action: "compact".into(),
                    persisted_entries: persisted,
                    dropped_entries: report.eval_entries_dropped,
                })
            }
            AdminRequest::Shutdown => {
                let persisted = self.flush();
                self.begin_shutdown();
                Response::Admin(AdminResponse {
                    action: "shutdown".into(),
                    persisted_entries: persisted,
                    dropped_entries: 0,
                })
            }
        }
    }
}

fn request_ctx(request: &Request) -> Option<&JobContext> {
    match request {
        Request::Compile(r) => Some(&r.ctx),
        Request::Search(r) => Some(&r.ctx),
        Request::Characterize(r) => Some(&r.ctx),
        Request::Admin(_) => None,
    }
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
