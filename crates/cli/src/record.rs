//! The observability request of one invocation: which recorder outputs
//! it asked for, and starting and finishing them around the command.

use std::time::Duration;

use dmig_obs::{history, trace};

use crate::args::Args;
use crate::files;

/// The recorder's flags, which `solve` and `simulate` take; `migrate
/// plan|execute|resume` take only `--metrics-out`.
pub(crate) const RECORDER: &str = "--trace --metrics-out FILE --trace-out FILE \
    --trace-html FILE --history FILE --events-out FILE --crash-dump FILE --serve ADDR \
    --serve-addr-file F";

/// The observability request of one invocation: the recorder flags among
/// its arguments (`--trace`, `--metrics-out`, `--trace-out`,
/// `--trace-html`, `--history`, `--events-out`, `--crash-dump`,
/// `--serve`). When none is given the recorder stays disabled and the
/// command runs exactly as without it (the instrumentation is a no-op).
pub(crate) struct ObsRequest<'a>(&'a Args<'a>);

/// The background half of `--serve`: the HTTP listener plus the sampling
/// profiler that feeds `prof.self_ns.*` and the RSS gauges. Both threads
/// only ever *read* recorder state (and write their own sampler keys), so
/// the solve schedule cannot depend on their timing.
struct LivePlane {
    server: dmig_obs::serve::ObsServer,
    sampler: dmig_obs::sampler::SamplerHandle,
}

impl LivePlane {
    /// Stops the sampler and the HTTP listener. Joining both threads here
    /// means no background thread outlives the command that spawned it.
    fn stop(self) {
        self.sampler.stop();
        let served = self.server.shutdown();
        dmig_obs::counter_add(dmig_obs::keys::SERVE_REQUESTS, served);
    }
}

/// Per-run metadata for the history line and the per-disk utilization
/// lane of the HTML timeline. A command that takes neither `--history`
/// nor `--trace-html` leaves it empty.
#[derive(Default)]
pub(crate) struct RunContext {
    pub(crate) source: &'static str,
    pub(crate) threads: usize,
    pub(crate) instance_text: String,
    pub(crate) wall: Duration,
    pub(crate) disks: Vec<trace::DiskUtilRow>,
}

impl<'a> ObsRequest<'a> {
    /// The recorder flags among `args`.
    pub(crate) fn new(args: &'a Args<'a>) -> ObsRequest<'a> {
        ObsRequest(args)
    }

    fn out(&self, flag: &str) -> Option<&'a str> {
        self.0.value(flag)
    }

    /// Whether an output was requested: any recorder flag.
    fn active(&self) -> bool {
        RECORDER.split_whitespace().any(|word| self.0.given(word))
    }

    /// Whether the flight recorder itself was requested.
    fn events(&self) -> bool {
        self.0.given("--events-out") || self.0.given("--crash-dump")
    }

    /// Runs `body` with the requested outputs recorded: collection starts
    /// before it, and once it has filled in its [`RunContext`] and
    /// succeeded, the outputs are written. When it fails, collection stops
    /// and nothing is written. `--serve-addr-file` without `--serve` is an
    /// error before `body` runs: there is no address to write.
    pub(crate) fn around<T>(
        &self,
        body: impl FnOnce(&mut RunContext) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.0.given("--serve-addr-file") && !self.0.given("--serve") {
            return Err("bad --serve-addr-file: missing --serve ADDR".to_string());
        }
        let mut run = RunContext::default();
        if !self.active() {
            return body(&mut run);
        }
        let live = self.begin()?;
        match body(&mut run) {
            Ok(out) => {
                self.finish(live, &run)?;
                Ok(out)
            }
            Err(e) => {
                self.abandon(live);
                Err(e)
            }
        }
    }

    /// Starts collection (clearing anything a previous `run` left behind).
    fn begin(&self) -> Result<Option<LivePlane>, String> {
        dmig_obs::reset();
        dmig_obs::set_enabled(true);
        // Every counter is in the export, even when a small instance never
        // hits its path; live gauges start from a known state so the very
        // first scrape (or an early snapshot) already carries them.
        for (key, kind, _) in dmig_obs::keys_reference() {
            if *kind == "counter" {
                dmig_obs::counter_add(key, 0);
            }
        }
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::IDLE);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ROUND, 0);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ITEMS_DONE, 0);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_SHARD_ACTIVE, 0);
        let live = match self.out("--serve") {
            Some(addr) => Some(self.start_live(addr).map_err(|e| {
                self.abandon(None);
                e
            })?),
            None => None,
        };
        if self.events() {
            dmig_obs::events::reset();
            if let Some(path) = self.out("--events-out") {
                // Atomic mode: the stream lands at `path` only when the
                // run completes, so a killed process never leaves a
                // half-written event file behind. (The workspace journal
                // wants the opposite discipline and uses `open_sink`.)
                if let Err(e) = dmig_obs::events::open_sink_atomic(path) {
                    self.abandon(live);
                    return Err(format!("cannot open {path}: {e}"));
                }
            }
            if let Some(path) = self.out("--crash-dump") {
                dmig_obs::events::set_crash_path(Some(std::path::PathBuf::from(path)));
            }
            dmig_obs::events::set_enabled(true);
        }
        Ok(live)
    }

    /// Starts the plane of `--serve ADDR`, and writes the address it bound
    /// to `--serve-addr-file`.
    fn start_live(&self, addr: &str) -> Result<LivePlane, String> {
        let sampler = dmig_obs::sampler::start(dmig_obs::sampler::DEFAULT_INTERVAL);
        let server =
            match dmig_obs::serve::ObsServer::start(addr, dmig_obs::serve::ServeSource::Live, None)
            {
                Ok(s) => s,
                Err(e) => {
                    sampler.stop();
                    return Err(format!("--serve: {e}"));
                }
            };
        let plane = LivePlane { server, sampler };
        if let Some(path) = self.out("--serve-addr-file") {
            // Written *after* bind so a watcher reading the file can
            // immediately connect (port 0 is resolved by now).
            let bound = format!("{}\n", plane.server.local_addr());
            if let Err(e) = files::write(path, bound.as_bytes()) {
                plane.stop();
                return Err(e);
            }
        }
        Ok(plane)
    }

    /// Disarms the flight recorder: stops emission, closes the sink with
    /// `close` (`close_sink` publishes it, `discard_sink` drops a failed
    /// run's), and clears the crash path so a later run cannot dump stale
    /// events.
    fn teardown_events(&self, close: fn()) {
        if self.events() {
            dmig_obs::events::set_enabled(false);
            close();
            dmig_obs::events::set_crash_path(None);
            dmig_obs::events::reset();
        }
    }

    /// Stops collection and emits the requested outputs: the span tree to
    /// stderr (`--trace`), the JSON snapshot (`--metrics-out`), the Chrome
    /// trace / HTML timeline (`--trace-out` / `--trace-html`), and the
    /// JSONL history entry (`--history`).
    fn finish(&self, live: Option<LivePlane>, run: &RunContext) -> Result<(), String> {
        // Mark completion while the recorder is still enabled, then stop
        // the live plane *before* disabling so a final scrape racing the
        // shutdown still sees a coherent (DONE) snapshot.
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::DONE);
        if let Some(plane) = live {
            plane.stop();
        }
        dmig_obs::set_enabled(false);
        self.teardown_events(dmig_obs::events::close_sink);
        let snap = dmig_obs::snapshot();
        if self.0.given("--trace") {
            eprint!("{}", snap.render_tree());
        }
        if let Some(path) = self.out("--metrics-out") {
            files::write(path, snap.to_json().as_bytes())?;
        }
        if let Some(path) = self.out("--trace-out") {
            files::write(path, trace::chrome_trace(&snap.spans).as_bytes())?;
        }
        if let Some(path) = self.out("--trace-html") {
            let html = trace::html_timeline_with_disks(&snap.spans, &run.disks);
            files::write(path, html.as_bytes())?;
        }
        if let Some(path) = self.out("--history") {
            let meta = history::RunMeta {
                git_rev: history::detect_git_rev(),
                threads: Some(run.threads as u64),
                hardware_threads: Some(
                    std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
                ),
                instance: Some(history::fingerprint(&run.instance_text)),
                wall_ms: Some(run.wall.as_secs_f64() * 1e3),
                source: run.source.to_string(),
            };
            history::append(path, &meta, &snap.flat_metrics())?;
        }
        Ok(())
    }

    /// Stops collection without emitting (the command failed mid-run).
    fn abandon(&self, live: Option<LivePlane>) {
        if let Some(plane) = live {
            plane.stop();
        }
        dmig_obs::set_enabled(false);
        self.teardown_events(dmig_obs::events::discard_sink);
    }
}
