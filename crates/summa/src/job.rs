//! The BSPified SUMMA job and its driver.

use std::sync::Arc;

use ripple_core::{
    CollectingExporter, ComputeContext, EbspError, ExecMode, Exporter, FnLoader, Job,
    JobProperties, JobRunner, LoadSink, RunOptions, RunOutcome,
};
use ripple_kv::KvStore;
use ripple_wire::{ByteReader, ByteWriter, Decode, Encode, WireError};

use crate::DenseMatrix;

/// Which multicast stream a block belongs to.
const AXIS_A: u8 = 0; // horizontal, along grid rows
const AXIS_B: u8 = 1; // vertical, along grid columns

/// A pipelined block transfer: one panel of `A` or `B` hopping to the next
/// grid neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMsg {
    /// `0` for an `A` panel (horizontal), `1` for a `B` panel (vertical).
    pub axis: u8,
    /// The SUMMA panel index.
    pub k: u8,
    /// The block payload.
    pub block: DenseMatrix,
}

impl Encode for BlockMsg {
    fn encode(&self, w: &mut ByteWriter) {
        self.axis.encode(w);
        self.k.encode(w);
        self.block.encode(w);
    }
    fn size_hint(&self) -> usize {
        2 + self.block.size_hint()
    }
}

impl Decode for BlockMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            axis: u8::decode(r)?,
            k: u8::decode(r)?,
            block: DenseMatrix::decode(r)?,
        })
    }
}

/// Per-component schedule state: the running `C` total, buffered panels,
/// and progress cursors into the multiply and send queues.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaState {
    c: DenseMatrix,
    a_have: Vec<(u8, DenseMatrix)>,
    b_have: Vec<(u8, DenseMatrix)>,
    next_mul: u8,
    h_sent: u8,
    v_sent: u8,
}

impl Encode for SummaState {
    fn encode(&self, w: &mut ByteWriter) {
        self.c.encode(w);
        self.a_have.encode(w);
        self.b_have.encode(w);
        self.next_mul.encode(w);
        self.h_sent.encode(w);
        self.v_sent.encode(w);
    }
    fn size_hint(&self) -> usize {
        self.c.size_hint() + 64
    }
}

impl Decode for SummaState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            c: DenseMatrix::decode(r)?,
            a_have: Vec::decode(r)?,
            b_have: Vec::decode(r)?,
            next_mul: u8::decode(r)?,
            h_sent: u8::decode(r)?,
            v_sent: u8::decode(r)?,
        })
    }
}

fn panel_queue(own: u8, n: u8) -> Vec<u8> {
    // A component sends every panel except the one whose pipeline ends at
    // it: panel k's chain is owner, owner+1, ..., owner+n-1; the last hop
    // ((k - 1) mod n relative to the axis index) does not forward.
    (0..n).filter(|&k| k != (own + 1) % n).collect()
}

fn peek_block(have: &[(u8, DenseMatrix)], k: u8) -> Option<&DenseMatrix> {
    have.iter().find(|(kk, _)| *kk == k).map(|(_, b)| b)
}

/// The SUMMA job: component `(i, j)` owns `A[i][j]`, `B[i][j]` and the
/// running total for `C[i][j]`.
pub struct SummaJob {
    table: String,
    n: u8,
    trace: Option<Arc<CollectingExporter<u32, u32>>>,
}

impl SummaJob {
    /// A SUMMA job on a `grid × grid` component grid whose schedule state
    /// lives in `table`, without a multiply trace.
    pub fn new(table: impl Into<String>, grid: u8) -> Self {
        Self {
            table: table.into(),
            n: grid,
            trace: None,
        }
    }
}

/// A loader seeding the `grid × grid` SUMMA component states from `a` and
/// `b`: component `(i, j)` starts with `A[i][j]`, `B[i][j]` and a zero `C`
/// block.  Public so external harnesses (e.g. the property auditor) can
/// drive [`SummaJob`] directly; [`multiply`] validates dimensions before
/// calling this.
#[must_use]
pub fn block_loader(
    a: &DenseMatrix,
    b: &DenseMatrix,
    grid: u8,
) -> Box<dyn ripple_core::Loader<SummaJob>> {
    let n = usize::from(grid);
    let (c_rows, c_cols) = (a.rows() / n, b.cols() / n);
    let mut entries = Vec::with_capacity(n * n);
    for ((i, a_row), b_row) in (0..grid).zip(a.split(n)).zip(b.split(n)) {
        for ((j, a_block), b_block) in (0..grid).zip(a_row).zip(b_row) {
            entries.push(((i, j), a_block, b_block));
        }
    }
    Box::new(FnLoader::new(move |sink: &mut dyn LoadSink<SummaJob>| {
        for ((i, j), a_block, b_block) in entries {
            sink.state(
                0,
                (u32::from(i), u32::from(j)),
                SummaState {
                    c: DenseMatrix::zeros(c_rows, c_cols),
                    a_have: vec![(j, a_block)],
                    b_have: vec![(i, b_block)],
                    next_mul: 0,
                    h_sent: 0,
                    v_sent: 0,
                },
            )?;
            sink.enable((u32::from(i), u32::from(j)))?;
        }
        Ok(())
    }))
}

impl Job for SummaJob {
    type Key = (u32, u32);
    type State = SummaState;
    type Message = BlockMsg;
    type OutKey = u32; // step
    type OutValue = u32; // one multiply

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            // Blocks can be delivered in any grouping as long as
            // per-(sender, receiver) order holds; the schedule state machine
            // orders them by panel index anyway.
            incremental: true,
            deterministic: true,
            ..JobProperties::default()
        }
    }

    fn direct_output(&self) -> Option<Arc<dyn Exporter<u32, u32>>> {
        self.trace.clone().map(|t| t as Arc<dyn Exporter<u32, u32>>)
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (i, j) = *ctx.key();
        let n = self.n;
        let Some(mut state) = ctx.read_state(0)? else {
            return Ok(false);
        };
        // Absorb arriving panels.
        for msg in ctx.take_messages() {
            match msg.axis {
                AXIS_A => state.a_have.push((msg.k, msg.block)),
                _ => state.b_have.push((msg.k, msg.block)),
            }
        }

        let coordinate = |x: u32| u8::try_from(x).expect("grid coordinates are below the u8 grid");
        let h_queue = panel_queue(coordinate(j), n);
        let v_queue = panel_queue(coordinate(i), n);
        // Per-step budgets: the BSPification allows one multiply and one
        // send per direction per step; without barriers a component deals
        // with blocks as they arrive, so it drains everything it can.
        let (mut mul_budget, mut h_budget, mut v_budget) = match ctx.mode() {
            ExecMode::Synchronized => (1u32, 1u32, 1u32),
            ExecMode::Unsynchronized => (u32::MAX, u32::MAX, u32::MAX),
        };

        loop {
            let mut progressed = false;
            // Horizontal pipeline: next A panel in queue order.
            if h_budget > 0 {
                if let Some(&k) = h_queue.get(state.h_sent as usize) {
                    if let Some(block) = peek_block(&state.a_have, k) {
                        ctx.send(
                            (i, (j + 1) % u32::from(n)),
                            BlockMsg {
                                axis: AXIS_A,
                                k,
                                block: block.clone(),
                            },
                        );
                        state.h_sent += 1;
                        h_budget -= 1;
                        progressed = true;
                    }
                }
            }
            // Vertical pipeline: next B panel in queue order.
            if v_budget > 0 {
                if let Some(&k) = v_queue.get(state.v_sent as usize) {
                    if let Some(block) = peek_block(&state.b_have, k) {
                        ctx.send(
                            ((i + 1) % u32::from(n), j),
                            BlockMsg {
                                axis: AXIS_B,
                                k,
                                block: block.clone(),
                            },
                        );
                        state.v_sent += 1;
                        v_budget -= 1;
                        progressed = true;
                    }
                }
            }
            // Multiply-add: strictly in panel order.
            if mul_budget > 0 && state.next_mul < n {
                let k = state.next_mul;
                if let (Some(a), Some(b)) =
                    (peek_block(&state.a_have, k), peek_block(&state.b_have, k))
                {
                    state.c.mul_add(a, b);
                    state.next_mul += 1;
                    mul_budget -= 1;
                    progressed = true;
                    if self.trace.is_some() {
                        ctx.output(ctx.step(), 1)?;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        // Drop panels that are fully consumed: multiplied and (if this
        // component forwards them) already sent.
        prune(&mut state.a_have, state.next_mul, &h_queue, state.h_sent);
        prune(&mut state.b_have, state.next_mul, &v_queue, state.v_sent);

        let done = state.next_mul == n
            && state.h_sent as usize == h_queue.len()
            && state.v_sent as usize == v_queue.len();
        ctx.write_state(0, &state)?;
        Ok(!done)
    }
}

/// Removes buffered panels that no pending multiply or send still needs —
/// the "limited buffering" virtue of SUMMA.
fn prune(have: &mut Vec<(u8, DenseMatrix)>, next_mul: u8, queue: &[u8], sent: u8) {
    have.retain(|(k, _)| {
        let mul_pending = *k >= next_mul;
        let send_pending = queue
            .iter()
            .position(|q| q == k)
            .is_some_and(|pos| pos >= sent as usize);
        mul_pending || send_pending
    });
}

/// Options for a SUMMA multiplication.
#[derive(Debug, Clone)]
pub struct SummaOptions {
    /// Grid dimension N (the paper's experiment uses 3).
    pub grid: u32,
    /// Run with barriers ([`ExecMode::Synchronized`]) or without.
    pub mode: ExecMode,
    /// Capture per-step multiply counts (Table II); synchronized runs only.
    pub trace: bool,
    /// Collect engine-level profiles on the outcome: per-step
    /// [`StepProfile`](ripple_core::StepProfile)s when synchronized,
    /// per-worker [`WorkerProfile`](ripple_core::WorkerProfile)s when not.
    pub profile: bool,
}

impl Default for SummaOptions {
    fn default() -> Self {
        Self {
            grid: 3,
            mode: ExecMode::Unsynchronized,
            trace: false,
            profile: false,
        }
    }
}

/// Cost report of one SUMMA multiplication.
#[derive(Debug)]
pub struct SummaReport {
    /// The engine outcome (barriers, invocations, elapsed, ...).
    pub outcome: RunOutcome,
    /// Multiplies per step (index 0 = step 1), when tracing was on.
    pub multiplies_per_step: Option<Vec<u64>>,
}

/// Multiplies `a × b` on an `N × N` grid of EBSP components, with or
/// without synchronization barriers per `options`.
///
/// # Errors
///
/// Fails with [`EbspError::InvalidJob`] on dimension mismatches, and
/// propagates engine errors.
pub fn multiply<S: KvStore>(
    store: &S,
    a: &DenseMatrix,
    b: &DenseMatrix,
    options: &SummaOptions,
) -> Result<(DenseMatrix, SummaReport), EbspError> {
    if a.cols() != b.rows() {
        return Err(EbspError::InvalidJob {
            reason: format!(
                "inner dimensions disagree: {}x{} times {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    // Panel indices are `u8`s: a larger grid is rejected like an empty one.
    let grid = u8::try_from(options.grid).unwrap_or(0);
    let n = usize::from(grid);
    if n == 0
        || !a.rows().is_multiple_of(n)
        || !a.cols().is_multiple_of(n)
        || !b.cols().is_multiple_of(n)
    {
        let n = options.grid;
        return Err(EbspError::InvalidJob {
            reason: format!("matrices do not divide into a {n}x{n} grid"),
        });
    }
    let table = fresh_table_name();
    let trace = options.trace.then(|| Arc::new(CollectingExporter::new()));
    let job = Arc::new(SummaJob {
        table: table.clone(),
        n: grid,
        trace: trace.clone(),
    });
    let loader = block_loader(a, b, grid);
    let run = launch_and_gather(store, &table, job, loader, options);
    // The state table goes on every exit path, a failed run's included; a
    // run that failed before creating it reports its own error first.
    let dropped = store.drop_table(&table).map_err(EbspError::Kv);
    let (c, outcome) = run?;
    dropped?;

    let multiplies_per_step = trace.map(|t| {
        let pairs = t.take();
        let max_step = pairs.iter().map(|(s, _)| *s).max().unwrap_or(0) as usize;
        let mut hist = vec![0u64; max_step];
        for (step, count) in pairs {
            hist[step as usize - 1] += u64::from(count);
        }
        hist
    });
    Ok((
        c,
        SummaReport {
            outcome,
            multiplies_per_step,
        },
    ))
}

/// Runs `job` and assembles the product from the `C` blocks its state
/// table holds afterwards.
fn launch_and_gather<S: KvStore>(
    store: &S,
    table: &str,
    job: Arc<SummaJob>,
    loader: Box<dyn ripple_core::Loader<SummaJob>>,
    options: &SummaOptions,
) -> Result<(DenseMatrix, RunOutcome), EbspError> {
    let n = usize::from(job.n);
    let mut runner = JobRunner::new(store.clone());
    runner.force_mode(options.mode).profile(options.profile);
    let outcome = runner.launch(job, RunOptions::new().loaders(vec![loader]))?;

    let handle = store.lookup_table(table).map_err(EbspError::Kv)?;
    let exporter = Arc::new(CollectingExporter::new());
    ripple_core::export_state_table::<S, (u32, u32), SummaState, _>(
        store,
        &handle,
        Arc::clone(&exporter),
    )?;
    let mut grid: Vec<Vec<Option<DenseMatrix>>> = (0..n).map(|_| vec![None; n]).collect();
    for ((i, j), state) in exporter.take() {
        grid[i as usize][j as usize] = Some(state.c);
    }
    let blocks: Vec<Vec<DenseMatrix>> = grid
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|b| b.expect("every component wrote its C block"))
                .collect()
        })
        .collect();
    Ok((DenseMatrix::assemble(&blocks), outcome))
}

fn fresh_table_name() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(1);
    format!("__summa_{}", NONCE.fetch_add(1, Ordering::Relaxed))
}
