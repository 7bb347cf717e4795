//! The three workloads: set-up, the timed closed loop, and answer checks.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use skyline_core::point::PointId;
use skyline_serve::wal::{self, StorageConfig};

use crate::client::{json_bool, json_u64, json_u64_array, Conn, Reply};
use crate::oracle::{self, Answer, Rows, Write};
use crate::procs::ServerProc;
use crate::stats;

/// The engines `cold-subspace` cycles through.
const COLD_ALGOS: [&str; 3] = ["SFS-Subset", "SaLSa-Subset", "SDI-Subset"];
/// The one hot query of the read/write workloads.
const HOT_ALGO: &str = "SDI-Subset";
/// Fresh rows kept aside per dataset for inserts during the timed phase.
const INSERT_POOL: usize = 10_000;
/// Write kinds of the read/write script, as cumulative shares: inserts,
/// then removes of shadowed points, then removes of skyline points.
const INSERT_SHARE: f64 = 0.60;
const SHADOWED_REMOVE_SHARE: f64 = 0.25;

/// Which server the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `skyline serve`, memory-only.
    Memory,
    /// `skyline serve` with a fresh data directory and `--fsync never`.
    Durable,
    /// `skyline cluster --spawn-local 2`.
    Cluster,
}

/// What the timed phase sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A block of removes of ids the server never issued, then reads
    /// cycling through every subspace key.
    Cold,
    /// `reads` hot reads, then `writes` single-row writes, repeated.
    ReadWrite { reads: usize, writes: usize },
}

pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub dims: usize,
    pub topology: Topology,
    pub mix: Mix,
    /// Independent datasets of `n` rows each. Read cost follows the
    /// skyline size, which varies by about 13% between UI samples at
    /// these sizes; the read/write workloads rotate over several samples
    /// so that one run's numbers do not hinge on one draw.
    pub datasets: usize,
    /// Rows per load request.
    pub batch: usize,
    /// Reads between two checked answers.
    pub check_every: usize,
}

impl Spec {
    /// The workload called `name`; `smoke` shrinks it to seconds.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let small = |n: usize| if smoke { 2_000 } else { n };
        let spec = match name {
            "cold-subspace" => Spec {
                name: "cold-subspace",
                n: small(100_000),
                dims: 8,
                topology: Topology::Memory,
                mix: Mix::Cold,
                datasets: 1,
                batch: 5_000,
                check_every: 1,
            },
            "serve-rw" => Spec {
                name: "serve-rw",
                n: small(50_000),
                dims: 6,
                topology: Topology::Durable,
                mix: Mix::ReadWrite {
                    reads: 10,
                    writes: 1,
                },
                datasets: 4,
                batch: 5_000,
                check_every: if smoke { 50 } else { 1_000 },
            },
            "cluster-rw" => Spec {
                name: "cluster-rw",
                n: small(20_000),
                dims: 6,
                topology: Topology::Cluster,
                mix: Mix::ReadWrite {
                    reads: 10,
                    writes: 1,
                },
                datasets: 4,
                batch: 5_000,
                check_every: if smoke { 10 } else { 64 },
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn server_args(&self, data_dir: &Path) -> Vec<String> {
        let mut args: Vec<String> = match self.topology {
            Topology::Memory | Topology::Durable => vec!["serve".into()],
            Topology::Cluster => vec!["cluster".into(), "--spawn-local".into(), "2".into()],
        };
        args.extend(["--port", "0", "--threads", "2"].map(String::from));
        if self.topology == Topology::Durable {
            args.extend([
                "--data-dir".to_string(),
                data_dir.display().to_string(),
                "--fsync".to_string(),
                "never".to_string(),
            ]);
        }
        args
    }
}

/// Latency class of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// A read whose result is not cached.
    Cold,
    /// A read with no write since the previous read.
    Cached,
    /// The first read after a write.
    Patched,
    Insert,
    RemoveShadowed,
    RemoveSkyline,
    /// A remove naming an id the server never issued: the full write
    /// request path with no mutation.
    RemoveAbsent,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Cold,
        Class::Cached,
        Class::Patched,
        Class::Insert,
        Class::RemoveShadowed,
        Class::RemoveSkyline,
        Class::RemoveAbsent,
    ];

    pub fn is_read(self) -> bool {
        matches!(self, Class::Cold | Class::Cached | Class::Patched)
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold-read",
            Class::Cached => "cached-read",
            Class::Patched => "patched-read",
            Class::Insert => "insert",
            Class::RemoveShadowed => "remove-shadowed",
            Class::RemoveSkyline => "remove-skyline",
            Class::RemoveAbsent => "remove-absent",
        }
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// Start, relative to the start of the timed phase.
    pub start: Duration,
    pub latency: Duration,
    pub ok: bool,
    /// Response body bytes received.
    pub resp_bytes: usize,
    /// The stage-times header, kept only in traced phases.
    pub stages: Option<String>,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Every dataset's rows, one after another: `n` loaded rows, then
    /// its insert pool.
    pub rows: Rows,
    /// Rows per dataset (loaded plus pool).
    pub per_dataset: usize,
    /// Subspace keys of `cold-subspace`, in the seeded cycle order.
    pub keys: Vec<(Vec<usize>, &'static str)>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let pool = match spec.mix {
            Mix::ReadWrite { .. } => INSERT_POOL,
            _ => 0,
        };
        let per_dataset = spec.n + pool;
        let mut values = Vec::with_capacity(per_dataset * spec.dims * spec.datasets);
        for k in 0..spec.datasets as u64 {
            let sample_seed = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let data = skyline_data::uniform_independent(per_dataset, spec.dims, sample_seed);
            values.extend_from_slice(data.as_flat());
        }
        let rows = Rows {
            dims: spec.dims,
            values,
        };
        let mut keys = Vec::new();
        if spec.mix == Mix::Cold {
            for mask in 1u32..(1 << spec.dims) {
                if mask.count_ones() < 2 {
                    continue;
                }
                let dims: Vec<usize> = (0..spec.dims).filter(|d| mask >> d & 1 == 1).collect();
                for algo in COLD_ALGOS {
                    keys.push((dims.clone(), algo));
                }
            }
            keys = cycle_order(keys, &mut Rng::new(seed ^ 0x5eed_c01d));
        }
        Inputs {
            rows,
            per_dataset,
            keys,
        }
    }

    /// Row index of dataset `k`'s row `i`.
    pub fn row_index(&self, k: usize, i: usize) -> u32 {
        (k * self.per_dataset + i) as u32
    }
}

/// The order in which `cold-subspace` cycles through its keys. Keys are
/// ranked by subspace size, then engine (ties in seeded order), and
/// visited with a golden-ratio stride from a seeded offset, so every
/// stretch of the cycle, and the part-cycle a timed phase ends in, holds
/// each subspace size and engine in the same proportion as the whole key
/// set.
fn cycle_order<T: Clone + Ord>(
    mut keys: Vec<(Vec<usize>, T)>,
    rng: &mut Rng,
) -> Vec<(Vec<usize>, T)> {
    let k = keys.len();
    if k < 2 {
        return keys;
    }
    rng.shuffle(&mut keys);
    keys.sort_by(|(a, x), (b, y)| (a.len(), x).cmp(&(b.len(), y)));
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((k as f64) * 0.618_033_988_75).round() as usize;
    while gcd(stride, k) != 1 {
        stride += 1;
    }
    let offset = rng.below(k);
    (0..k)
        .map(|i| keys[(offset + i * stride) % k].clone())
        .collect()
}

/// splitmix64: the script's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The client's view of one dataset on the server.
pub struct Table {
    pub name: String,
    /// Live ids → row index.
    pub live: BTreeMap<u64, u32>,
    pub version: u64,
    /// The last answer to the hot query: the current skyline.
    pub skyline: Vec<u64>,
    /// This dataset's next unused insert-pool row.
    pub next_row: u32,
    /// This dataset's first and one-past-last pool row.
    pool: std::ops::Range<u32>,
}

impl Table {
    fn take_pool_row(&mut self) -> u32 {
        let row = self.next_row;
        self.next_row = if row + 1 >= self.pool.end {
            self.pool.start
        } else {
            row + 1
        };
        row
    }

    fn points(&self) -> String {
        format!("/datasets/{}/points", self.name)
    }

    fn hot_target(&self) -> String {
        format!("/skyline?dataset={}&algo={HOT_ALGO}", self.name)
    }

    fn subspace_target(&self, dims: &[usize], algo: &str) -> String {
        let list: Vec<String> = dims.iter().map(usize::to_string).collect();
        format!(
            "/skyline?dataset={}&algo={algo}&dims={}",
            self.name,
            list.join(",")
        )
    }
}

/// A running server with its datasets loaded and warmed up.
pub struct Session {
    pub server: ServerProc,
    pub conn: Conn,
    pub tables: Vec<Table>,
    pub setup: Duration,
    pub data_dir: PathBuf,
}

impl Session {
    /// Close the client connection, then stop the server: an open
    /// keep-alive connection would hold its shutdown back.
    pub fn close(self) {
        drop(self.conn);
        self.server.stop();
    }
}

pub fn rows_json(rows: &Rows, range: std::ops::Range<u32>) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(range.len() * rows.dims * 20 + 16);
    s.push_str("{\"rows\":[");
    for (i, r) in range.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, v) in rows.row(r).iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write!(s, "{v}").expect("writing to a String cannot fail");
        }
        s.push(']');
    }
    s.push_str("]}");
    s
}

fn expect_ok(what: &str, reply: std::io::Result<Reply>) -> Result<Reply, String> {
    match reply {
        Ok(r) if r.ok() => Ok(r),
        Ok(r) => Err(format!("{what}: status {} {}", r.status, r.text())),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Make every file in `dir` durable, so no write-back of the load is
/// left to run during the timed phase.
fn sync_dir(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.path().is_file() {
            let file = std::fs::File::open(entry.path()).map_err(|e| e.to_string())?;
            file.sync_all().map_err(|e| e.to_string())?;
        }
    }
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| e.to_string())
}

/// Insert one row; returns the id the server gave it.
fn insert_one(conn: &mut Conn, table: &Table, rows: &Rows, row: u32) -> Result<u64, String> {
    let body = rows_json(rows, row..row + 1);
    let reply = expect_ok(
        "insert",
        conn.request("POST", &table.points(), body.as_bytes()),
    )?;
    json_u64_array(reply.text(), "ids")
        .and_then(|ids| ids.first().copied())
        .ok_or_else(|| "insert reply without an id".to_string())
}

/// Start the server, load the rows, and warm up. The time from spawning
/// the process to the end of warm-up is the set-up time.
pub fn setup(
    spec: &Spec,
    inputs: &Inputs,
    bin: &Path,
    data_dir: PathBuf,
) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let started = Instant::now();
    let server = ServerProc::spawn(bin, &spec.server_args(&data_dir))?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut tables = Vec::with_capacity(spec.datasets);
    for k in 0..spec.datasets {
        let name = format!("bench{k}");
        let create = format!("{{\"name\":\"{name}\",\"dims\":{},\"rows\":[]}}", spec.dims);
        expect_ok(
            "create dataset",
            conn.request("POST", "/datasets", create.as_bytes()),
        )?;
        let pool = inputs.row_index(k, spec.n)..inputs.row_index(k + 1, 0);
        let mut table = Table {
            name,
            live: BTreeMap::new(),
            version: 0,
            skyline: Vec::new(),
            next_row: pool.start,
            pool,
        };
        let points = table.points();
        let last = inputs.row_index(k, spec.n);
        let mut at = inputs.row_index(k, 0);
        while at < last {
            let end = (at + spec.batch as u32).min(last);
            let body = rows_json(&inputs.rows, at..end);
            let reply = expect_ok("load", conn.request("POST", &points, body.as_bytes()))?;
            let ids = json_u64_array(reply.text(), "ids").ok_or("load reply without ids")?;
            if ids.len() != (end - at) as usize {
                return Err(format!("load acked {} of {} rows", ids.len(), end - at));
            }
            table.live.extend(ids.into_iter().zip(at..end));
            at = end;
        }
        tables.push(table);
    }
    if spec.topology == Topology::Durable {
        sync_dir(&data_dir)?;
    }
    // Warm-up. `cold-subspace` warms with a one-dimensional query, a key
    // outside its cycle. The read/write workloads read each hot query,
    // write once to each dataset (so any compaction the load left pending
    // runs here, not in the timed phase), and read again.
    for table in &mut tables {
        let reply = match spec.mix {
            Mix::Cold => {
                let target = table.subspace_target(&[0], HOT_ALGO);
                expect_ok("warm-up read", conn.request("GET", &target, b""))?
            }
            Mix::ReadWrite { .. } => {
                expect_ok(
                    "warm-up read",
                    conn.request("GET", &table.hot_target(), b""),
                )?;
                let row = table.take_pool_row();
                let key = insert_one(&mut conn, table, &inputs.rows, row)?;
                table.live.insert(key, row);
                expect_ok(
                    "warm-up read",
                    conn.request("GET", &table.hot_target(), b""),
                )?
            }
        };
        table.version = json_u64(reply.text(), "version").ok_or("read reply without version")?;
        table.skyline = json_u64_array(reply.text(), "ids").ok_or("read reply without ids")?;
    }
    Ok(Session {
        server,
        conn,
        tables,
        setup: started.elapsed(),
        data_dir,
    })
}

/// Everything the timed phase observed.
pub struct Phase {
    pub ops: Vec<Op>,
    /// Wall time of the timed loop, without `cold-subspace`'s write
    /// blocks.
    pub wall: Duration,
    /// Acknowledged writes, with the dataset each went to.
    pub writes: Vec<(usize, Write)>,
    /// Answers to check, with their dataset; `after_writes` counts that
    /// dataset's writes.
    pub answers: Vec<(usize, Answer)>,
    /// Reads the server answered from its cache.
    pub cache_hits: usize,
    /// Ops whose reply was wrong on its face (status, version, shape).
    pub failures: Vec<String>,
    /// Bodies of a few read replies and write requests, for the replay.
    pub sample_read_bodies: Vec<Vec<u8>>,
    pub sample_write_bodies: Vec<Vec<u8>>,
}

/// The timed phase's working view of one dataset.
struct LiveSet {
    /// Live ids in a vector for uniform picks, with each id's position.
    ids: Vec<u64>,
    pos: HashMap<u64, usize>,
    row_of: HashMap<u64, u32>,
    skyline: HashSet<u64>,
    /// Rows of removed skyline points, inserted again so the skyline
    /// keeps its size over the run.
    reinsert: VecDeque<u32>,
    writes: usize,
}

impl LiveSet {
    fn of(table: &Table) -> LiveSet {
        let ids: Vec<u64> = table.live.keys().copied().collect();
        LiveSet {
            pos: ids.iter().enumerate().map(|(i, &k)| (k, i)).collect(),
            row_of: table.live.iter().map(|(&k, &r)| (k, r)).collect(),
            skyline: table.skyline.iter().copied().collect(),
            ids,
            reinsert: VecDeque::new(),
            writes: 0,
        }
    }

    fn add(&mut self, key: u64, row: u32) {
        self.pos.insert(key, self.ids.len());
        self.ids.push(key);
        self.row_of.insert(key, row);
    }

    fn remove(&mut self, key: u64) {
        if let Some(pos) = self.pos.remove(&key) {
            self.ids.swap_remove(pos);
            if pos < self.ids.len() {
                self.pos.insert(self.ids[pos], pos);
            }
        }
        let row = self.row_of.remove(&key);
        if self.skyline.remove(&key) {
            self.reinsert.extend(row);
        }
    }
}

/// `cold-subspace`'s writes: this many blocks, evenly spaced over the
/// timed phase, of this many removes each. Five blocks sample five
/// moments of the host, and 2,000 removes leave 20 beyond the p99.
const ABSENT_BLOCKS: u32 = 5;
const ABSENT_PER_BLOCK: u64 = 400;

/// One block of removes of ids the server never issued, the write class
/// of `cold-subspace`: the whole write request path with no mutation.
/// Blocks run between reads and are left out of the timed phase's clock
/// and op rate. Only a block's first remove follows a cold read (and
/// waits for that read's clean-up on the connection's worker), which
/// keeps that second population far below the p99.
fn absent_removes(session: &mut Session, points: &str, first: u64, phase: &mut Phase) {
    for id in first..first + ABSENT_PER_BLOCK {
        let body = format!("{{\"ids\":[{id}]}}");
        let sent = Instant::now();
        let reply = session.conn.request("DELETE", points, body.as_bytes());
        let latency = sent.elapsed();
        let mut op = Op {
            class: Class::RemoveAbsent,
            start: Duration::ZERO,
            latency,
            ok: false,
            resp_bytes: 0,
            stages: None,
        };
        match reply {
            Ok(reply) if reply.ok() => {
                op.resp_bytes = reply.body.len();
                let text = reply.text();
                op.ok = json_u64(text, "removed") == Some(0)
                    && json_u64(text, "version") == Some(session.tables[0].version);
                if !op.ok {
                    phase
                        .failures
                        .push(format!("remove of absent id {id}: reply {text}"));
                }
            }
            Ok(reply) => phase
                .failures
                .push(format!("remove of absent id {id}: status {}", reply.status)),
            Err(e) => {
                phase
                    .failures
                    .push(format!("remove of absent id {id}: {e}"));
                phase.ops.push(op);
                return;
            }
        }
        phase.ops.push(op);
    }
}

/// Run the closed loop for `seconds`: one request at a time over the
/// session's one connection. `trace` keeps each read's stage-times
/// header.
pub fn timed_phase(
    spec: &Spec,
    inputs: &Inputs,
    session: &mut Session,
    rng: &mut Rng,
    seconds: Duration,
    trace: bool,
) -> Phase {
    let mut phase = Phase {
        ops: Vec::with_capacity(1 << 16),
        wall: Duration::ZERO,
        writes: Vec::new(),
        answers: Vec::new(),
        cache_hits: 0,
        failures: Vec::new(),
        sample_read_bodies: Vec::new(),
        sample_write_bodies: Vec::new(),
    };
    let key_targets: Vec<String> = inputs
        .keys
        .iter()
        .map(|(dims, algo)| session.tables[0].subspace_target(dims, algo))
        .collect();
    let hot: Vec<String> = session.tables.iter().map(Table::hot_target).collect();
    let points: Vec<String> = session.tables.iter().map(Table::points).collect();
    let mut sets: Vec<LiveSet> = session.tables.iter().map(LiveSet::of).collect();
    // Which reads get checked: every `check_every`-th, from a seeded offset.
    let check_offset = rng.below(spec.check_every);
    let mut reads = 0usize;
    let mut writes = 0usize;
    let mut after_write = false;
    let mut step = 0usize;
    let mut blocks = 0u32;
    // Time spent in `cold-subspace`'s write blocks, off the phase's clock.
    let mut paused = Duration::ZERO;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed() - paused;
        if spec.mix == Mix::Cold
            && blocks < ABSENT_BLOCKS
            && elapsed >= seconds * blocks / ABSENT_BLOCKS
        {
            let first = (1u64 << 31) + u64::from(blocks) * ABSENT_PER_BLOCK;
            let block = Instant::now();
            absent_removes(session, &points[0], first, &mut phase);
            paused += block.elapsed();
            writes += ABSENT_PER_BLOCK as usize;
            blocks += 1;
            continue;
        }
        if elapsed >= seconds {
            break;
        }
        // Read/write workloads go in blocks of `r` reads and `w` writes,
        // each block on the next dataset in turn. A block's writes pick
        // their ids from its last read's answer.
        let (is_read, last_before_write, k) = match spec.mix {
            Mix::Cold => (true, false, 0),
            Mix::ReadWrite {
                reads: r,
                writes: w,
            } => {
                let at = step % (r + w);
                (at < r, at + 1 == r, (step / (r + w)) % sets.len())
            }
        };
        step += 1;
        let op_start = started.elapsed() - paused;
        if is_read {
            let (target, dims) = match spec.mix {
                Mix::Cold => {
                    let i = reads % key_targets.len();
                    (&key_targets[i], inputs.keys[i].0.clone())
                }
                _ => (&hot[k], (0..spec.dims).collect()),
            };
            let class = match spec.mix {
                Mix::Cold => Class::Cold,
                _ if after_write => Class::Patched,
                _ => Class::Cached,
            };
            let sent = Instant::now();
            let reply = session.conn.request("GET", target, b"");
            let latency = sent.elapsed();
            let mut op = Op {
                class,
                start: op_start,
                latency,
                ok: false,
                resp_bytes: 0,
                stages: None,
            };
            let table = &session.tables[k];
            match reply {
                Ok(reply) if reply.ok() => {
                    let text = reply.text();
                    op.resp_bytes = reply.body.len();
                    let got_version = json_u64(text, "version");
                    if got_version != Some(table.version) {
                        phase.failures.push(format!(
                            "read {reads} of {}: version {got_version:?}, expected {}",
                            table.name, table.version
                        ));
                    } else if let Some(missing) = partial(text) {
                        phase.failures.push(format!(
                            "read {reads} of {}: partial answer, shards {missing:?} missing",
                            table.name
                        ));
                    } else {
                        op.ok = true;
                    }
                    if json_bool(text, "cached") == Some(true) {
                        phase.cache_hits += 1;
                    }
                    let checked = reads % spec.check_every == check_offset;
                    if checked || last_before_write {
                        match json_u64_array(text, "ids") {
                            Some(ids) => {
                                if last_before_write {
                                    sets[k].skyline = ids.iter().copied().collect();
                                    session.tables[k].skyline = ids.clone();
                                }
                                if checked {
                                    let answer = Answer {
                                        op: phase.ops.len(),
                                        after_writes: sets[k].writes,
                                        dims,
                                        ids,
                                    };
                                    phase.answers.push((k, answer));
                                }
                            }
                            None => {
                                op.ok = false;
                                phase.failures.push(format!("read {reads}: no ids"));
                            }
                        }
                    }
                    if phase.sample_read_bodies.len() < 16 && reads.is_multiple_of(16) {
                        phase.sample_read_bodies.push(reply.body.clone());
                    }
                    if trace {
                        op.stages = reply.stage_times;
                    }
                }
                Ok(reply) => phase
                    .failures
                    .push(format!("read {reads}: status {}", reply.status)),
                Err(e) => {
                    phase.failures.push(format!("read {reads}: {e}"));
                    phase.ops.push(op);
                    break;
                }
            }
            phase.ops.push(op);
            reads += 1;
            after_write = false;
            continue;
        }

        // A write: pick its kind, send it, and apply it to the client's
        // view only once the server acknowledged it.
        let set = &mut sets[k];
        let table = &mut session.tables[k];
        let u = rng.unit();
        let mut pick = None;
        if u >= INSERT_SHARE + SHADOWED_REMOVE_SHARE && !table.skyline.is_empty() {
            let key = table.skyline[rng.below(table.skyline.len())];
            pick = Some((Class::RemoveSkyline, key));
        } else if u >= INSERT_SHARE {
            for _ in 0..100 {
                let key = set.ids[rng.below(set.ids.len())];
                if !set.skyline.contains(&key) {
                    pick = Some((Class::RemoveShadowed, key));
                    break;
                }
            }
        }
        let (class, method, body, key, row) = match pick {
            Some((class, key)) => (class, "DELETE", format!("{{\"ids\":[{key}]}}"), key, 0),
            None => {
                let row = set.reinsert.front().copied().unwrap_or(table.next_row);
                let body = rows_json(&inputs.rows, row..row + 1);
                (Class::Insert, "POST", body, 0, row)
            }
        };
        let sent = Instant::now();
        let reply = session.conn.request(method, &points[k], body.as_bytes());
        let latency = sent.elapsed();
        let mut op = Op {
            class,
            start: op_start,
            latency,
            ok: false,
            resp_bytes: 0,
            stages: None,
        };
        if phase.sample_write_bodies.len() < 16 {
            phase.sample_write_bodies.push(body.clone().into_bytes());
        }
        match reply {
            Ok(reply) if reply.ok() => {
                op.resp_bytes = reply.body.len();
                let text = reply.text();
                let applied = match class {
                    Class::Insert => json_u64_array(text, "ids")
                        .filter(|ids| ids.len() == 1)
                        .map(|ids| ids[0]),
                    _ => json_u64(text, "removed").filter(|&r| r == 1).map(|_| key),
                };
                let version_ok = json_u64(text, "version") == Some(table.version + 1);
                match applied.filter(|_| version_ok) {
                    Some(key) => {
                        op.ok = true;
                        table.version += 1;
                        match class {
                            Class::Insert => {
                                if set.reinsert.pop_front().is_none() {
                                    table.take_pool_row();
                                }
                                set.add(key, row);
                                set.writes += 1;
                                phase.writes.push((k, Write::Insert { key, row }));
                            }
                            Class::RemoveShadowed | Class::RemoveSkyline => {
                                set.remove(key);
                                table.skyline.retain(|&s| s != key);
                                set.writes += 1;
                                phase.writes.push((k, Write::Remove { key }));
                            }
                            _ => {}
                        }
                    }
                    None => phase.failures.push(format!(
                        "write {writes} ({}) to {}: reply {text} at version {}",
                        class.name(),
                        table.name,
                        table.version
                    )),
                }
            }
            Ok(reply) => phase.failures.push(format!(
                "write {writes} ({}): status {} {}",
                class.name(),
                reply.status,
                reply.text()
            )),
            Err(e) => {
                phase.failures.push(format!("write {writes}: {e}"));
                phase.ops.push(op);
                break;
            }
        }
        phase.ops.push(op);
        writes += 1;
        after_write = true;
    }
    phase.wall = started.elapsed() - paused;
    for &(k, w) in &phase.writes {
        let live = &mut session.tables[k].live;
        match w {
            Write::Insert { key, row } => {
                live.insert(key, row);
            }
            Write::Remove { key } => {
                live.remove(&key);
            }
        }
    }
    phase
}

/// The missing shards of a cluster answer that left some out: one
/// marked `"partial": true` or naming any `missing_shards`. A shard's
/// points are then absent, and the answer is faster for it.
fn partial(text: &str) -> Option<Vec<u64>> {
    let missing = json_u64_array(text, "missing_shards").unwrap_or_default();
    (json_bool(text, "partial") == Some(true) || !missing.is_empty()).then_some(missing)
}

/// Read each dataset's final state once more (untimed) and add it to the
/// answers. Returns how many of these reads failed.
pub fn final_read(spec: &Spec, session: &mut Session, phase: &mut Phase) -> usize {
    let full: Vec<usize> = (0..spec.dims).collect();
    let before = phase.failures.len();
    for (k, table) in session.tables.iter().enumerate() {
        let target = match spec.mix {
            Mix::Cold => table.subspace_target(&full, HOT_ALGO),
            _ => table.hot_target(),
        };
        let after_writes = phase.writes.iter().filter(|(w, _)| *w == k).count();
        match expect_ok("final read", session.conn.request("GET", &target, b"")) {
            Ok(reply) if partial(reply.text()).is_some() => phase
                .failures
                .push(format!("final read of {}: partial answer", table.name)),
            Ok(reply) => match json_u64_array(reply.text(), "ids") {
                Some(ids) => phase.answers.push((
                    k,
                    Answer {
                        op: phase.ops.len(),
                        after_writes,
                        dims: full.clone(),
                        ids,
                    },
                )),
                None => phase.failures.push("final read: no ids".into()),
            },
            Err(e) => phase.failures.push(e),
        }
    }
    phase.failures.len() - before
}

/// Check every recorded answer against the oracle, per dataset. The
/// work is split over two threads: by dataset, or, for one dataset in
/// one state, by subspace.
pub fn check_answers(
    inputs: &Inputs,
    initial: &[BTreeMap<u64, u32>],
    phase: &Phase,
) -> Vec<String> {
    // One job per dataset: its writes and its answers, sorted by state
    // and subspace so that equal oracle runs are adjacent.
    let mut jobs: Vec<(usize, Vec<Write>, Vec<&Answer>)> = (0..initial.len())
        .map(|k| {
            let writes = phase
                .writes
                .iter()
                .filter(|(w, _)| *w == k)
                .map(|&(_, w)| w)
                .collect();
            let mut answers: Vec<&Answer> = phase
                .answers
                .iter()
                .filter(|(a, _)| *a == k)
                .map(|(_, a)| a)
                .collect();
            answers.sort_by(|a, b| (a.after_writes, &a.dims).cmp(&(b.after_writes, &b.dims)));
            (k, writes, answers)
        })
        .collect();
    if jobs.len() == 1 && jobs[0].1.is_empty() {
        // One state: halve the answers at a subspace boundary.
        let answers = std::mem::take(&mut jobs[0].2);
        let mut at = answers.len() / 2;
        while at > 0 && at < answers.len() && answers[at].dims == answers[at - 1].dims {
            at += 1;
        }
        let (a, b) = answers.split_at(at);
        jobs = vec![(0, Vec::new(), a.to_vec()), (0, Vec::new(), b.to_vec())];
    }
    let run = |(k, writes, answers): &(usize, Vec<Write>, Vec<&Answer>)| {
        oracle::check(&inputs.rows, &initial[*k], writes, answers)
    };
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) = jobs.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let other = s.spawn(move || {
            odd.into_iter()
                .flat_map(|(_, j)| run(j))
                .collect::<Vec<_>>()
        });
        let mut wrong: Vec<String> = even.into_iter().flat_map(|(_, j)| run(j)).collect();
        wrong.extend(other.join().expect("oracle thread panicked"));
        wrong
    })
}

/// Each dataset's (version, WAL file size).
pub fn wal_state(session: &Session) -> Vec<(u64, u64)> {
    session
        .tables
        .iter()
        .map(|t| {
            let path = session.data_dir.join(format!("{}.wal", t.name));
            (t.version, std::fs::metadata(path).map_or(0, |m| m.len()))
        })
        .collect()
}

/// WAL compactions during the timed phase. The server compacts once a
/// dataset's log reaches the threshold and then empties it, so replaying
/// the sizes of the records the phase appended from each log's size
/// before the phase gives the count; the replayed end sizes must match
/// the files, or the count is unknown.
pub fn timed_compactions(
    inputs: &Inputs,
    phase: &Phase,
    before: &[(u64, u64)],
    after: &[(u64, u64)],
) -> Option<u64> {
    let threshold = StorageConfig::new(".").compact_bytes;
    let mut count = 0;
    for (k, (&(mut version, mut size), &(_, end))) in before.iter().zip(after).enumerate() {
        for (_, w) in phase.writes.iter().filter(|(d, _)| *d == k) {
            version += 1;
            let record = match *w {
                Write::Insert { row, .. } => wal::insert_record(inputs.rows.row(row), version),
                Write::Remove { key } => wal::remove_record(key as PointId, version),
            };
            size += record.len() as u64 + 1;
            if size >= threshold {
                size = 0;
                count += 1;
            }
        }
        if size != end {
            return None;
        }
    }
    Some(count)
}

/// p50/p99 over the ops of one kind, in ms.
pub fn latency_of(ops: &[Op], reads: bool) -> stats::Latency {
    latency_where(ops, |op| op.class.is_read() == reads)
}

/// p50/p99 in ms over the ops `keep` selects.
pub fn latency_where(ops: &[Op], keep: impl Fn(&Op) -> bool) -> stats::Latency {
    let samples: Vec<f64> = ops
        .iter()
        .filter(|op| keep(op))
        .map(|op| op.latency.as_secs_f64() * 1e3)
        .collect();
    stats::Latency::of(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_partial_cluster_answer_is_caught() {
        let whole =
            r#"{"version":3,"ids":[1,2],"partial":false,"missing_shards":[],"reused_shards":[0]}"#;
        assert_eq!(partial(whole), None);
        let short =
            r#"{"version":3,"ids":[1],"partial":true,"missing_shards":[1],"reused_shards":[]}"#;
        assert_eq!(partial(short), Some(vec![1]));
        let unflagged = r#"{"version":3,"ids":[1],"partial":false,"missing_shards":[0]}"#;
        assert_eq!(partial(unflagged), Some(vec![0]));
        // A single server's answer carries neither field.
        assert_eq!(partial(r#"{"version":3,"ids":[1,2]}"#), None);
    }
}
