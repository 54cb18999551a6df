//! The durability harness: one model, one driver, four properties.
//!
//! The driver serves batch streams through [`QueryServer::process_batch`]
//! with a [`DurableStore`] attached, injects failures (a rejected batch, a
//! failed WAL append, a failed checkpoint write or rename) and crashes
//! (drop the server, damage the files, reopen, resume). The model is a
//! plain [`DynamicGraph`] that receives only the batches acknowledged
//! `Ok`. The driver checks:
//!
//! 1. after every `Ok` batch, every answer equals Cold-Start on the model;
//! 2. every recovered graph has the `snapshot_digest` of the model prefix
//!    at the recovered `next_seq`;
//! 3. an `Err` batch leaves the graph and the answers unchanged, and never
//!    reaches the WAL (the next recovery would replay it);
//! 4. a checkpoint failure, inline or surfaced later by the background
//!    worker, comes back as `Ok` with `checkpoint_error` set (an `Err`
//!    would break property 3: the batch took effect).

mod temp_dir;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use cisgraph::graph::GraphError;
use cisgraph::prelude::*;
use cisgraph_persist::{
    recover, snapshot_digest, CheckpointMode, DurableStore, FsyncPolicy, PersistConfig, Recovered,
    RecoveryStats, WalFrame, FRAME_HEADER_BYTES, UPDATE_BYTES,
};
use proptest::prelude::*;
use temp_dir::TempDir;

const N: u32 = 12;

fn bootstrap() -> DynamicGraph {
    DynamicGraph::with_promotion_threshold(N as usize, 3)
}

fn v(x: u32) -> VertexId {
    VertexId::new(x)
}

fn digest(graph: &DynamicGraph) -> u32 {
    snapshot_digest(&graph.snapshot())
}

/// `(delete, a, b, weight)`, resolved against the model when served: an
/// insert of `a -> b`, or a delete of the model's `(a * N + b)`-th edge,
/// so random deletes hit (an insert when the graph has no edge).
type Op = (bool, u32, u32, u32);

#[derive(Debug, Clone)]
enum Step {
    Batch(Vec<Op>),
    /// A valid insert followed by a delete of an absent edge.
    Reject,
    /// Serves the batch with a directory squatting on the segment the next
    /// rotation opens.
    FailAppend(Vec<Op>),
    /// Squats directories on the temp names of the checkpoint covering the
    /// next batch, then serves it.
    FailCheckpointWrite(Vec<Op>),
    /// Squats a directory on that checkpoint's final name instead.
    FailCheckpointRename(Vec<Op>),
    /// Serves empty batches until one reports a checkpoint failure.
    AwaitCheckpointError,
    CheckpointNow,
    Crash(Damage),
}

/// What a crash does to the files once the server is dropped.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// Cuts the concatenated segments at this many thousandths.
    Truncate(u64),
    /// Appends this percentage of the frame the next batch would write.
    TearNextFrame(usize),
    /// Flips bit `.1` of byte `.0` (modulo their length) of the segments.
    FlipBit(u64, u32),
    LoseNewestCheckpoint,
    /// Plants a complete and a garbage `.tmp` checkpoint.
    LeaveTmp,
    EmptyWal,
}

/// What a run saw, for the deterministic cases to assert on.
#[derive(Debug, Default)]
struct Tally {
    checkpoint_errors: usize,
    /// `next_seq` and stats of every recovery, the first open included.
    next_seqs: Vec<usize>,
    stats: Vec<RecoveryStats>,
}

struct Harness {
    dir: TempDir,
    cfg: PersistConfig,
    threads: usize,
    queries: Vec<PairQuery>,
    server: Option<QueryServer<Ppsp>>,
    /// The batches acknowledged `Ok`, in WAL order; the model is the
    /// bootstrap graph with exactly these applied.
    acked: Vec<Vec<EdgeUpdate>>,
    model: DynamicGraph,
    /// `digests[k]` is the model's digest after `k` acknowledged batches.
    digests: Vec<u32>,
    squats: Vec<PathBuf>,
    /// A WAL append failed: every batch fails until the next reopen.
    poisoned: bool,
    tally: Tally,
}

impl Harness {
    fn new(threads: usize, mut cfg: PersistConfig) -> Self {
        let dir = TempDir::new("durability");
        cfg.dir = dir.path().to_path_buf();
        let queries = [(0, 5), (0, 11), (3, 7), (6, 2), (9, 1)];
        let mut h = Self {
            dir,
            cfg,
            threads,
            queries: queries
                .map(|(s, d)| PairQuery::new(v(s), v(d)).unwrap())
                .to_vec(),
            server: None,
            acked: Vec::new(),
            model: bootstrap(),
            digests: vec![digest(&bootstrap())],
            squats: Vec::new(),
            poisoned: false,
            tally: Tally::default(),
        };
        h.open();
        h
    }

    fn dir(&self) -> &Path {
        self.dir.path()
    }

    fn server(&mut self) -> &mut QueryServer<Ppsp> {
        self.server.as_mut().expect("the server is up")
    }

    /// Property 2.
    fn check_recovered(&self, recovered: &Recovered) -> usize {
        let next = recovered.next_seq as usize;
        let acked = self.acked.len();
        assert!(
            next <= acked,
            "recovered {next} batches, {acked} acknowledged"
        );
        let diverged = format!("the recovered graph diverges at prefix {next}");
        assert_eq!(digest(&recovered.graph), self.digests[next], "{diverged}");
        next
    }

    /// Property 1.
    fn check_answers(&self, answers: &[(PairQuery, State)]) {
        for &(q, got) in answers {
            let want = ColdStart::<Ppsp>::new(q)
                .process_batch(&self.model, &[])
                .answer;
            assert_eq!(got, want, "{q} after {} batches", self.acked.len());
        }
    }

    /// Recovers through `DurableStore::open`, truncates the model to the
    /// recovered prefix, and resumes serving from there.
    fn open(&mut self) -> usize {
        let (store, recovered) = DurableStore::open(self.cfg.clone(), bootstrap).unwrap();
        let next = self.check_recovered(&recovered);
        // No damage touches a checkpoint file.
        assert_eq!(recovered.stats.corrupt_checkpoints, 0);
        self.tally.next_seqs.push(next);
        self.tally.stats.push(recovered.stats);
        self.acked.truncate(next);
        self.digests.truncate(next + 1);
        self.model = bootstrap();
        for batch in &self.acked {
            self.model.apply_batch(batch).unwrap();
        }
        let config = ServeConfig::with_threads(self.threads);
        let mut server = QueryServer::new(recovered.graph, &self.queries, &config);
        server.attach_durability(store);
        self.check_answers(&server.answers());
        self.server = Some(server);
        self.poisoned = false;
        next
    }

    fn resolve(&self, ops: &[Op]) -> Vec<EdgeUpdate> {
        let mut running = self.model.clone();
        let resolve = |&(delete, a, b, w): &Op| {
            let edges = running.num_edges();
            let victim = (delete && edges > 0)
                .then(|| running.iter_edges().nth((a * N + b) as usize % edges));
            let update = match victim.flatten() {
                Some((s, d, w)) => EdgeUpdate::delete(s, d, w),
                None => EdgeUpdate::insert(v(a), v(b), Weight::new(w.into()).unwrap()),
            };
            running.apply(update).unwrap();
            update
        };
        ops.iter().map(resolve).collect()
    }

    /// Serves one batch, checking properties 1, 3 and 4.
    fn serve(&mut self, batch: &[EdgeUpdate]) -> Option<ServeReport> {
        let server = self.server();
        let before = (digest(server.graph()), server.answers());
        match server.process_batch(batch) {
            Ok(report) => {
                assert!(!self.poisoned, "a poisoned WAL acknowledged a batch");
                self.model.apply_batch(batch).unwrap();
                self.acked.push(batch.to_vec());
                self.digests.push(digest(&self.model));
                assert_eq!(digest(self.server().graph()), digest(&self.model));
                let answers = self.server().answers();
                self.check_answers(&answers);
                self.tally.checkpoint_errors += usize::from(report.checkpoint_error.is_some());
                Some(report)
            }
            Err(e) => {
                let server = self.server();
                let after = (digest(server.graph()), server.answers());
                assert_eq!(after, before, "a failed batch left a trace: {e}");
                self.poisoned |= matches!(e, GraphError::Io(_));
                None
            }
        }
    }

    /// Makes `name` a directory, so creating, opening or renaming onto it
    /// fails. A name a file already holds is left alone.
    fn squat(&mut self, name: String) {
        let path = self.dir().join(name);
        if fs::create_dir(&path).is_ok() {
            self.squats.push(path);
        }
    }

    fn remove_squats(&mut self) {
        for squat in self.squats.drain(..) {
            fs::remove_dir(squat).unwrap();
        }
    }

    fn step(&mut self, step: &Step) {
        // The checkpoint covering the next batch, and the segment the
        // rotation after it opens.
        let next = self.acked.len() + 1;
        let checkpoint = format!("ckpt-{next:016x}");
        match step {
            Step::Batch(ops) => {
                self.serve(&self.resolve(ops));
            }
            Step::Reject => {
                let absent = (0..N * N)
                    .map(|i| (v(i / N), v(i % N)))
                    .find(|&(s, d)| (s, d) != (v(0), v(1)) && !self.model.contains_edge(s, d))
                    .unwrap();
                let delete = EdgeUpdate::delete(absent.0, absent.1, Weight::ONE);
                let batch = [EdgeUpdate::insert(v(0), v(1), Weight::ONE), delete];
                assert!(self.serve(&batch).is_none(), "deleted an absent edge");
            }
            Step::FailAppend(ops) => {
                self.squat(format!("wal-{next:016x}.seg"));
                self.serve(&self.resolve(ops));
                // A failed rotation leaves no file behind, and pruning would
                // take a lasting squat for a segment.
                self.remove_squats();
            }
            Step::FailCheckpointWrite(ops) | Step::FailCheckpointRename(ops) => {
                // Earlier checkpoint squats stay: pruning never counts one
                // on a final name as a retained checkpoint.
                if matches!(step, Step::FailCheckpointWrite(_)) {
                    self.squat(format!("{checkpoint}.ckpt.tmp"));
                    self.squat(format!("{checkpoint}.dckpt.tmp"));
                } else if self.cfg.mode == CheckpointMode::Full {
                    self.squat(format!("{checkpoint}.ckpt"));
                } else {
                    self.squat(format!("{checkpoint}.dckpt"));
                }
                self.serve(&self.resolve(ops));
            }
            Step::AwaitCheckpointError => {
                // The worker fails at once; the next cadence call reports it.
                for _ in 0..100_000 {
                    if self
                        .serve(&[])
                        .is_some_and(|r| r.checkpoint_error.is_some())
                    {
                        return;
                    }
                    std::thread::yield_now();
                }
                panic!("no checkpoint failure surfaced");
            }
            Step::CheckpointNow => self.server().checkpoint_now().unwrap(),
            Step::Crash(damage) => {
                self.shutdown();
                let expect = self.damage(*damage);
                let next = self.open();
                if let Some(expect) = expect {
                    assert_eq!(next, expect, "recovery after {damage:?}");
                }
            }
        }
    }

    /// Drops the server, which joins the checkpoint worker and flushes an
    /// unpoisoned WAL, and removes the squats.
    fn shutdown(&mut self) {
        self.server = None;
        self.remove_squats();
        if self.cfg.mode == CheckpointMode::Full || self.cfg.full_every == 1 {
            assert!(
                files(self.dir(), ".dckpt").is_empty(),
                "a delta was written"
            );
        }
    }

    /// Damages the stopped server's files. Returns the `next_seq` recovery
    /// must land on, where the damage fixes it.
    fn damage(&self, damage: Damage) -> Option<usize> {
        let segments = files(self.dir(), ".seg");
        let total: u64 = segments.iter().map(|p| len(p)).sum();
        let newest_checkpoint = || files(self.dir(), "ckpt").pop().unwrap();
        match damage {
            Damage::None => {}
            Damage::Truncate(permille) => {
                let mut cut = total * permille / 1000;
                for (i, seg) in segments.iter().enumerate() {
                    if cut <= len(seg) {
                        fs::write(seg, &fs::read(seg).unwrap()[..cut as usize]).unwrap();
                        segments[i + 1..]
                            .iter()
                            .for_each(|p| fs::remove_file(p).unwrap());
                        break;
                    }
                    cut -= len(seg);
                }
                return None;
            }
            Damage::TearNextFrame(percent) => {
                let mut frame = Vec::new();
                let next = [EdgeUpdate::insert(v(0), v(1), Weight::ONE)];
                let encoded = WalFrame::encode(self.acked.len() as u64, &next, &mut frame);
                let torn = (encoded * percent / 100).clamp(1, encoded - 1);
                let file = fs::File::options()
                    .append(true)
                    .open(segments.last().unwrap());
                file.unwrap().write_all(&frame[..torn]).unwrap();
            }
            Damage::FlipBit(pos, bit) => {
                if total > 0 {
                    flip(&segments, pos % total, 1 << bit);
                }
                return None;
            }
            Damage::LoseNewestCheckpoint => {
                if files(self.dir(), "ckpt").len() >= 2 {
                    fs::remove_file(newest_checkpoint()).unwrap();
                }
                // An earlier crash may have cut the WAL the fallback needs.
                return None;
            }
            Damage::LeaveTmp => {
                let complete = self.dir().join("ckpt-00000000deadbeef.dckpt.tmp");
                fs::copy(newest_checkpoint(), complete).unwrap();
                fs::write(self.dir().join("ckpt-00000000deadbeee.ckpt.tmp"), b"torn").unwrap();
            }
            Damage::EmptyWal => {
                segments.iter().for_each(|p| fs::write(p, b"").unwrap());
                // Recovery lands on the newest checkpoint.
                let name = newest_checkpoint().file_name().unwrap().to_owned();
                return Some(usize::from_str_radix(&name.to_str().unwrap()[5..21], 16).unwrap());
            }
        }
        Some(self.acked.len())
    }
}

/// The files in `dir` whose names end in `suffix`, sorted by name, which
/// sorts segments and checkpoints by the sequence number they carry.
fn files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file() && p.to_str().unwrap().ends_with(suffix))
        .collect();
    out.sort();
    out
}

fn len(path: &Path) -> u64 {
    fs::metadata(path).unwrap().len()
}

/// XORs `mask` into byte `pos` of the files read as one stream.
fn flip(paths: &[PathBuf], mut pos: u64, mask: u8) {
    for path in paths {
        if pos < len(path) {
            let mut bytes = fs::read(path).unwrap();
            bytes[pos as usize] ^= mask;
            return fs::write(path, bytes).unwrap();
        }
        pos -= len(path);
    }
}

fn config(mode: CheckpointMode, full_every: u64, every: Option<u64>) -> PersistConfig {
    let mut cfg = PersistConfig::new(PathBuf::new());
    // Buffered: a graceful drop flushes, and the damage models the crash.
    cfg.fsync = FsyncPolicy::Never;
    cfg.mode = mode;
    cfg.full_every = full_every;
    cfg.checkpoint_every = every;
    cfg
}

/// Runs `steps`, then crashes cleanly so the whole history is recovered.
fn run(threads: usize, cfg: PersistConfig, steps: &[Step]) -> Tally {
    let mut h = Harness::new(threads, cfg);
    for step in steps.iter().chain([&Step::Crash(Damage::None)]) {
        h.step(step);
    }
    h.tally
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<bool>(), 0..N, 0..N, 1..4u32), 0..5)
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let damage = prop_oneof![
        Just(Damage::None),
        (0..=1000u64).prop_map(Damage::Truncate),
        (1..100usize).prop_map(Damage::TearNextFrame),
        (any::<u64>(), 0..8u32).prop_map(|(pos, bit)| Damage::FlipBit(pos, bit)),
        Just(Damage::LoseNewestCheckpoint),
        Just(Damage::LeaveTmp),
        Just(Damage::EmptyWal),
    ];
    let step = prop_oneof![
        ops().prop_map(Step::Batch),
        ops().prop_map(Step::Batch),
        ops().prop_map(Step::Batch),
        ops().prop_map(Step::Batch),
        Just(Step::Reject),
        ops().prop_map(Step::FailAppend),
        ops().prop_map(Step::FailCheckpointWrite),
        ops().prop_map(Step::FailCheckpointRename),
        damage.prop_map(Step::Crash),
    ];
    proptest::collection::vec(step, 1..16)
}

fn persist_config() -> impl Strategy<Value = PersistConfig> {
    let mode = prop_oneof![Just(CheckpointMode::Full), Just(CheckpointMode::Delta)];
    let knobs = (mode, 1..=5u64, 0..=3u64, any::<bool>(), 1..512u64);
    knobs.prop_map(|(mode, full_every, every, background, segment_bytes)| {
        let mut cfg = config(mode, full_every, (every > 0).then_some(every));
        cfg.background = background;
        cfg.segment_bytes = segment_bytes;
        cfg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_streams_keep_the_four_properties(
        threads in 1..=3usize,
        cfg in persist_config(),
        steps in steps(),
    ) {
        // Shown only if the case fails.
        println!("threads {threads}, {cfg:?}, {steps:?}");
        run(threads, cfg, &steps);
    }
}

fn inserts(edges: &[(u32, u32)]) -> Vec<Op> {
    edges.iter().map(|&(a, b)| (false, a, b, 2)).collect()
}

fn batch(edges: &[(u32, u32)]) -> Step {
    Step::Batch(inserts(edges))
}

#[test]
fn rejected_batch_leaves_no_trace() {
    let cfg = config(CheckpointMode::Delta, 1, None);
    let steps = [batch(&[(0, 5), (5, 11)]), Step::Reject, batch(&[(3, 7)])];
    let tally = run(1, cfg, &steps);
    // Only the two acknowledged batches were logged.
    assert_eq!(tally.next_seqs, [0, 2]);
    assert_eq!(tally.stats[1].replayed_batches, 2);
}

#[test]
fn failed_wal_append_is_undone_and_poisons_the_log() {
    let mut cfg = config(CheckpointMode::Full, 1, None);
    cfg.segment_bytes = 1; // every append rotates
    let steps = [
        batch(&[(0, 5)]),
        Step::FailAppend(inserts(&[(5, 11)])),
        batch(&[(3, 7)]),
    ];
    let tally = run(2, cfg, &steps);
    // The append failed, then the poisoned log refused the next batch.
    assert_eq!(tally.next_seqs, [0, 1]);
    assert_eq!(tally.stats[1].replayed_batches, 1);
}

#[test]
fn failed_checkpoint_write_or_rename_keeps_the_batch() {
    cisgraph::obs::enable();
    let fails = [
        Step::FailCheckpointWrite(inserts(&[(0, 5)])),
        Step::FailCheckpointRename(inserts(&[(0, 5)])),
    ];
    for fail in fails {
        let cfg = config(CheckpointMode::Full, 1, Some(1));
        let tally = run(3, cfg, &[batch(&[(5, 11)]), fail, batch(&[(3, 7)])]);
        assert_eq!(tally.checkpoint_errors, 1);
    }
    assert!(cisgraph::obs::snapshot().counters["serve.checkpoint_failures"] >= 2);
}

#[test]
fn background_checkpoint_failure_surfaces_on_a_later_batch() {
    let mut cfg = config(CheckpointMode::Delta, 3, Some(1));
    cfg.background = true;
    // `CheckpointNow` leaves nothing in flight, so the next cadence
    // checkpoint is the one the squat breaks.
    let steps = [
        batch(&[(5, 11), (3, 7)]),
        batch(&[(6, 2)]),
        Step::CheckpointNow,
        Step::FailCheckpointWrite(inserts(&[(0, 5)])),
        Step::AwaitCheckpointError,
        batch(&[(2, 9), (9, 1)]),
        Step::CheckpointNow,
    ];
    let tally = run(2, cfg, &steps);
    assert_eq!(tally.checkpoint_errors, 1);
    assert_eq!(
        tally.stats[1].replayed_batches, 0,
        "the last checkpoint covers all"
    );
}

#[test]
fn every_crash_shape_recovers_resumes_and_recovers_again() {
    // Six batches with a checkpoint at 4: only the WAL holds batches 4 and
    // 5, so a damaged WAL tail falls back to the checkpoint. The segments
    // (128 bytes) rotate every third frame, so `wal-0` holds only frames
    // the checkpoint covers: recovery never reads it, and a flip there
    // costs nothing.
    let six: Vec<Step> = (0..6).map(|i| batch(&[(i, i + 1), (i + 6, i)])).collect();
    let frame = (FRAME_HEADER_BYTES + 4 + 2 * UPDATE_BYTES) as u64;
    let cases = [
        (Damage::None, 6),
        (Damage::Truncate(0), 4),
        (Damage::TearNextFrame(50), 6),
        (Damage::FlipBit(0, 0), 6),
        (Damage::FlipBit(4 * frame, 0), 4),
        (Damage::LoseNewestCheckpoint, 6),
        (Damage::LeaveTmp, 6),
        (Damage::EmptyWal, 4),
    ];
    for (threads, (damage, want)) in (1..).zip(cases) {
        let mut cfg = config(CheckpointMode::Delta, 3, Some(4));
        cfg.segment_bytes = 128;
        let resume = (0..3).map(|i| batch(&[(i, 11)]));
        let steps: Vec<Step> = six
            .iter()
            .cloned()
            .chain([Step::Crash(damage)])
            .chain(resume)
            .collect();
        let tally = run(threads % 3 + 1, cfg, &steps);
        assert_eq!(tally.next_seqs, [0, want, want + 3], "{damage:?}");
    }
    // Losing the newest checkpoint, then the WAL, lands on the older one.
    let crashes = [
        Step::Crash(Damage::LoseNewestCheckpoint),
        Step::Crash(Damage::EmptyWal),
    ];
    let steps: Vec<Step> = six.into_iter().chain(crashes).collect();
    let tally = run(1, config(CheckpointMode::Full, 1, Some(4)), &steps);
    assert_eq!(tally.next_seqs, [0, 6, 0, 0]);
    assert!(
        tally.stats[1].replayed_batches > 0,
        "the fallback replays the WAL"
    );
}

/// Regression: emptying the WAL left segments named past the checkpoint
/// recovery landed on. The resumed frames then sat in an earlier-named
/// segment, which pruning, trusting segment names, deleted with
/// acknowledged batches inside.
#[test]
fn segments_named_past_the_recovered_position_are_dropped() {
    let mut cfg = config(CheckpointMode::Full, 1, Some(2));
    cfg.segment_bytes = 128; // two-update frames rotate every third batch
    let mut steps: Vec<Step> = (0..9).map(|i| batch(&[(i, i + 1), (i + 2, i)])).collect();
    steps.push(Step::Crash(Damage::EmptyWal));
    // Empty frames are smaller: the next five share `wal-8`, across the
    // name of the emptied `wal-9`. The checkpoint at 12 prunes up to
    // `wal-9`, so batch 12 has to survive in `wal-8`.
    steps.extend((0..5).map(|_| Step::Batch(Vec::new())));
    assert_eq!(run(1, cfg, &steps).next_seqs, [0, 8, 13]);
}

/// Regression: recovery used to read every segment from the first, so a
/// flipped byte in a segment the checkpoint already covered ended the log
/// there. Recovery then cut that segment, deleted every later one, and
/// came back without the acknowledged batches past the checkpoint.
#[test]
fn bit_rot_in_a_covered_segment_loses_no_batch() {
    let mut cfg = config(CheckpointMode::Full, 1, None);
    cfg.segment_bytes = 128; // two-update frames rotate every third batch
    let mut h = Harness::new(1, cfg);
    for i in 0..9 {
        h.step(&batch(&[(i, i + 1), (i + 2, i)]));
        if i == 4 {
            // Covers batches 0..5: all of `wal-0`, part of `wal-3`.
            h.step(&Step::CheckpointNow);
        }
    }
    h.shutdown();
    let segments = files(h.dir(), ".seg");
    assert!(segments.len() >= 3, "wal-0, wal-3, wal-6: {segments:?}");
    flip(&segments[..1], len(&segments[0]) / 2, 0x01);

    let recovered = recover(h.dir(), bootstrap).unwrap();
    assert_eq!(
        recovered.next_seq, 9,
        "every acknowledged batch is replayed"
    );
    assert_eq!(recovered.stats.checkpoint_seq, 5);
    assert_eq!(recovered.stats.replayed_batches, 4);
    assert_eq!(digest(&recovered.graph), digest(&h.model));
    assert_eq!(files(h.dir(), ".seg"), segments, "no segment is deleted");
}

/// Eight batches of four updates, every third a delete. Each batch
/// inserts from two sources only, so a later checkpoint can be a delta.
fn fixed_history(cfg: PersistConfig) -> Harness {
    let mut h = Harness::new(2, cfg);
    for k in 0..8 {
        let op = |i: u32| (i % 3 == 2, (k * 2 + i % 2) % N, (i * 5 + 1) % N, i % 4 + 1);
        h.step(&Step::Batch((k * 4..k * 4 + 4).map(op).collect()));
    }
    h.shutdown();
    assert_eq!(h.acked.len(), 8);
    h
}

fn recover_prefix(h: &Harness) -> (usize, RecoveryStats) {
    let recovered = recover(h.dir(), bootstrap).unwrap();
    (h.check_recovered(&recovered), recovered.stats)
}

#[test]
fn wal_cut_or_flipped_at_every_byte_recovers_a_prefix() {
    let h = fixed_history(config(CheckpointMode::Full, 1, None));
    let [seg] = &files(h.dir(), ".seg")[..] else {
        panic!("one segment")
    };
    let pristine = fs::read(seg).unwrap();
    let frame_bytes = FRAME_HEADER_BYTES + 4 + 4 * UPDATE_BYTES;
    let mut prefixes = Vec::new();
    for pos in 0..=pristine.len() {
        fs::write(seg, &pristine[..pos]).unwrap();
        prefixes.push(recover_prefix(&h).0);
        if pos < pristine.len() {
            fs::write(seg, &pristine).unwrap();
            flip(std::slice::from_ref(seg), pos as u64, 1 << (pos % 8));
            let next = recover_prefix(&h).0;
            assert!(
                next >= pos / frame_bytes,
                "a flip at {pos} lost earlier frames"
            );
        }
    }
    // Monotone in the cut, and every frame boundary is a recovery point.
    assert!(prefixes.windows(2).all(|w| w[0] <= w[1]));
    for k in 0..=8 {
        assert!(prefixes.contains(&k), "no cut recovers exactly {k} batches");
    }
}

#[test]
fn delta_checkpoint_bit_flips_fall_back_and_replay() {
    let mut cfg = config(CheckpointMode::Delta, 3, Some(3));
    cfg.keep_checkpoints = 4;
    let h = fixed_history(cfg);
    let deltas = files(h.dir(), ".dckpt");
    assert!(!deltas.is_empty(), "the history writes deltas");
    let mut fell_back_and_replayed = false;
    for path in &deltas {
        let pristine = fs::read(path).unwrap();
        for pos in (0..pristine.len()).step_by(3) {
            flip(std::slice::from_ref(path), pos as u64, 0x10);
            let (next, stats) = recover_prefix(&h);
            fell_back_and_replayed |=
                stats.corrupt_checkpoints > 0 && stats.replayed_batches > 0 && next == 8;
            fs::write(path, &pristine).unwrap();
        }
    }
    assert!(fell_back_and_replayed);
    assert_eq!(recover_prefix(&h).0, 8);
}
