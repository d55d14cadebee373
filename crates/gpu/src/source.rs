//! The instruction-source seam: where the engine gets its warp streams.
//!
//! [`InstructionSource`] is the narrow interface [`crate::system::GpuSystem`]
//! (and `CoSim` above it) actually consumes: launch geometry plus one
//! [`BlockTrace`] per dispatched block. Every [`Kernel`] is trivially a
//! source (the blanket impl below), but so is a recorded trace replayed
//! from disk — that is the seam `coolpim-trace` plugs into, mirroring how
//! PR 7 made `CoSim` generic over `ThermalSolve`.
//!
//! The request order is a contract: within a launch the engine asks for
//! blocks `0, 1, 2, …` in id order, each exactly once, and it calls
//! `next_launch` only after it has requested every block of the grid
//! (and retired them). The block stream depends on neither timing nor
//! `pim_enabled` (host-vs-PIM encoding is decided at issue time, see
//! [`crate::kernel`]). Together these make the stream a pure function of
//! the workload: recorded once, it replays bit-identically under any
//! cooling, policy or derating point, and [`PrefetchKernel`] can generate
//! it ahead of the engine on another thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use crate::isa::BlockTrace;
use crate::kernel::{Kernel, KernelProfile};

/// Anything that can feed the GPU engine a launch sequence of block traces.
///
/// The contract matches [`Kernel`] method-for-method; see that trait for
/// the detailed semantics. Implementors that replay pre-recorded streams
/// must return the same geometry and traces, in the same dispatch order,
/// as the live kernel that produced them.
pub trait InstructionSource {
    /// Workload name (used in reports).
    fn name(&self) -> &str;

    /// Number of thread blocks in the *current* launch.
    fn grid_blocks(&self) -> usize;

    /// Warps per block.
    fn warps_per_block(&self) -> usize;

    /// Produces the trace for `block` of the current launch.
    fn block_trace(&mut self, block: usize, pim_enabled: bool) -> BlockTrace;

    /// Takes back a spent block for reuse; the default drops it.
    fn recycle(&mut self, spent: BlockTrace) {
        drop(spent);
    }

    /// Advances to the next launch; `false` when the workload is complete.
    fn next_launch(&mut self) -> bool;

    /// Static profile for the software throttler's Eq. 1 initialisation.
    fn profile(&self) -> KernelProfile;
}

impl<K: Kernel + ?Sized> InstructionSource for K {
    fn name(&self) -> &str {
        Kernel::name(self)
    }
    fn grid_blocks(&self) -> usize {
        Kernel::grid_blocks(self)
    }
    fn warps_per_block(&self) -> usize {
        Kernel::warps_per_block(self)
    }
    fn block_trace(&mut self, block: usize, pim_enabled: bool) -> BlockTrace {
        Kernel::block_trace(self, block, pim_enabled)
    }
    fn recycle(&mut self, spent: BlockTrace) {
        Kernel::recycle(self, spent);
    }
    fn next_launch(&mut self) -> bool {
        Kernel::next_launch(self)
    }
    fn profile(&self) -> KernelProfile {
        Kernel::profile(self)
    }
}

/// Blocks the producer thread may run ahead of the engine.
const LOOKAHEAD: usize = 128;

/// A producer parked on a full queue is woken once the engine has drained
/// it to this length, not on every block: a wake-up is a system call on
/// the engine's thread, and one per block would eat the overlap.
const REFILL_AT: usize = LOOKAHEAD / 2;

/// Threads running co-sims in this process: every worker of a pool that
/// holds [`RunSlots`], and every other thread that has made a
/// [`PrefetchKernel`], until it exits.
static RUNNERS: AtomicUsize = AtomicUsize::new(0);

/// The spare-core rule: a run prefetches only when every thread running
/// a co-sim, its own included, can have two cores to itself.
fn prefetch_pays(runners: usize, cores: usize) -> bool {
    runners * 2 <= cores
}

/// [`prefetch_pays`] for the current runners on this host's cores.
fn spare_core() -> bool {
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    prefetch_pays(RUNNERS.load(Ordering::SeqCst), cores)
}

/// One count in [`RUNNERS`], given back when dropped.
struct Runner;

impl Runner {
    fn count() -> Self {
        RUNNERS.fetch_add(1, Ordering::SeqCst);
        Runner
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        RUNNERS.fetch_sub(1, Ordering::SeqCst);
    }
}

thread_local! {
    /// Whether this thread works in one of a pool's [`RunSlots`].
    static POOLED: Cell<bool> = const { Cell::new(false) };
    /// The count of a thread that runs co-sims outside any pool: taken
    /// when it makes its first kernel, given back when it exits.
    static UNPOOLED: Runner = Runner::count();
}

/// The runner counts a pool of concurrent co-sims holds for its whole
/// life, one per worker, so that the spare-core rule sees the pool's full
/// width from before its first run to after its last, gaps between one
/// worker's runs included. Kernels made inside [`RunSlots::work`] take no
/// count of their own.
pub struct RunSlots(usize);

impl RunSlots {
    /// Counts `workers` runners until dropped; take it before starting the
    /// workers.
    #[must_use = "the workers count only while the slots are held"]
    pub fn reserve(workers: usize) -> Self {
        RUNNERS.fetch_add(workers, Ordering::SeqCst);
        Self(workers)
    }

    /// Runs one worker's body on the calling thread, which must be one of
    /// the workers [`RunSlots::reserve`] counted: kernels made in `body`
    /// take no count of their own.
    pub fn work<R>(&self, body: impl FnOnce() -> R) -> R {
        /// Clears [`POOLED`] however `body` ends.
        struct Leave;
        impl Drop for Leave {
            fn drop(&mut self) {
                POOLED.set(false);
            }
        }
        POOLED.set(true);
        let _leave = Leave;
        body()
    }
}

impl Drop for RunSlots {
    fn drop(&mut self) {
        RUNNERS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

type SendKernel = Box<dyn Kernel + Send>;

/// What the producer sends the engine, in request order.
enum Item {
    /// The next block of the current launch.
    Block(BlockTrace),
    /// The launch is over: the next launch's grid size, or `None` when
    /// the workload is complete.
    Launch(Option<usize>),
}

/// The queue between a producer thread and the engine: blocks and launch
/// markers one way, spent blocks the other.
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// Signalled when the engine waits for an item and one arrives, or
    /// the producer stops.
    filled: Condvar,
    /// Signalled when the producer waits for room and the engine has
    /// drained the queue to [`REFILL_AT`], or hung up.
    drained: Condvar,
}

#[derive(Default)]
struct PipeState {
    items: VecDeque<Item>,
    spent: Vec<BlockTrace>,
    engine_waits: bool,
    producer_waits: bool,
    /// The engine will take no more items.
    hung_up: bool,
    /// The producer has returned or panicked.
    stopped: bool,
}

impl Pipe {
    /// The state; a panic elsewhere never leaves it half-updated.
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Producer side: queues `item` once there is room, and moves the
    /// blocks the engine has given back onto `spent`. Returns `false`,
    /// dropping `item`, once the engine has hung up.
    fn push(&self, item: Item, spent: &mut Vec<BlockTrace>) -> bool {
        let mut s = self.lock();
        while s.items.len() >= LOOKAHEAD && !s.hung_up {
            s.producer_waits = true;
            s = self.drained.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        spent.append(&mut s.spent);
        if s.hung_up {
            return false;
        }
        s.items.push_back(item);
        if std::mem::take(&mut s.engine_waits) {
            self.filled.notify_one();
        }
        true
    }

    /// Engine side: the next item, or `None` once the producer has
    /// stopped with nothing left to send.
    fn pop(&self) -> Option<Item> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                if s.items.len() <= REFILL_AT && std::mem::take(&mut s.producer_waits) {
                    self.drained.notify_one();
                }
                return Some(item);
            }
            if s.stopped {
                return None;
            }
            s.engine_waits = true;
            s = self.filled.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Producer side: waits for the engine to hang up, then frees the
    /// blocks it gave back last.
    fn await_hang_up(&self) {
        let mut s = self.lock();
        while !s.hung_up {
            s.producer_waits = true;
            s = self.drained.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        let spent = std::mem::take(&mut s.spent);
        drop(s);
        drop(spent);
    }

    /// Engine side: hands a spent block back to the producer.
    fn give_back(&self, spent: BlockTrace) {
        self.lock().spent.push(spent);
    }

    /// Engine side: takes no more items; a parked producer wakes and
    /// stops.
    fn hang_up(&self) {
        self.lock().hung_up = true;
        self.drained.notify_one();
    }
}

/// Marks the pipe stopped when the producer returns or unwinds, so that a
/// waiting engine wakes either way.
struct StopOnExit<'a>(&'a Pipe);

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        self.0.lock().stopped = true;
        self.0.filled.notify_one();
    }
}

/// The engine's end of a producer thread.
struct Producer {
    pipe: Arc<Pipe>,
    thread: JoinHandle<()>,
}

impl Producer {
    /// Moves `kernel` to a new thread that generates its whole block
    /// stream, at most [`LOOKAHEAD`] blocks ahead of the engine.
    fn spawn(kernel: SendKernel) -> Self {
        let pipe = Arc::new(Pipe::default());
        let theirs = Arc::clone(&pipe);
        let thread = thread::Builder::new()
            .name(format!("{}-blocks", kernel.name()))
            .spawn(move || produce(kernel, &theirs))
            .expect("spawn the block producer thread");
        Self { pipe, thread }
    }

    /// Hangs up and waits for the thread, which frees the kernel and every
    /// block buffer it still holds. Returns the producer's panic, if it
    /// had one.
    fn stop(self) -> thread::Result<()> {
        self.pipe.hang_up();
        self.thread.join()
    }
}

/// The next item from `producer`. If the producer has died, it is
/// stopped and its panic resumes here with the original payload.
fn next_item(producer: &mut Option<Producer>) -> Item {
    let p = producer.as_mut().expect("block producer already stopped");
    match p.pipe.pop() {
        Some(item) => item,
        None => match producer.take().map(Producer::stop) {
            Some(Err(payload)) => panic::resume_unwind(payload),
            _ => panic!("block producer stopped before the workload completed"),
        },
    }
}

/// The producer thread's body. Every block buffer is allocated, refilled
/// and freed here: spent blocks come back through the pipe, the kernel
/// builds each block in one of them, and the last ones are freed when the
/// engine hangs up.
fn produce(kernel: SendKernel, pipe: &Pipe) {
    let _stop = StopOnExit(pipe);
    generate(kernel, pipe);
    pipe.await_hang_up();
}

/// Feeds `kernel`'s whole block stream into `pipe`, or as much of it as
/// the engine takes. Blocks the engine gives back go to the kernel, which
/// keeps what it reuses and frees the rest here.
fn generate(mut kernel: SendKernel, pipe: &Pipe) {
    let mut spent = Vec::new();
    loop {
        for id in 0..kernel.grid_blocks() {
            for b in spent.drain(..) {
                kernel.recycle(b);
            }
            // The stream does not depend on the grant (module docs).
            let block = kernel.block_trace(id, true);
            if !pipe.push(Item::Block(block), &mut spent) {
                return;
            }
        }
        let more = kernel.next_launch();
        if !pipe.push(Item::Launch(more.then(|| kernel.grid_blocks())), &mut spent) || !more {
            return;
        }
    }
}

/// A [`Kernel`] adapter that generates its kernel's blocks on a spare
/// core, ahead of the engine.
///
/// It applies the spare-core rule when its run starts (the first
/// `block_trace` or `next_launch`): the run prefetches only if every
/// thread running a co-sim, its own included, can have two cores to
/// itself, `runners × 2 ≤ available_parallelism`. A runner is a worker of
/// a pool that holds [`RunSlots`] (counted for the pool's whole life), or
/// any other thread that has made a `PrefetchKernel` (counted from its
/// first kernel until it exits). Otherwise the adapter calls the kernel
/// inline, exactly as if unwrapped. Either way spent blocks go back to
/// the kernel through [`Kernel::recycle`].
///
/// Prefetching moves the kernel to a producer thread that feeds a bounded
/// queue of blocks and launch markers, at most 128 blocks ahead.
/// The stream is the same as inline because it depends on neither timing
/// nor the PIM grant (see [`crate::source`]). The adapter asserts the
/// request order, so a caller that breaks it fails loudly instead of
/// getting a different stream. A producer panic resumes on the engine's
/// thread with its original payload. Dropping the adapter mid-run hangs
/// up on the producer and joins it.
pub struct PrefetchKernel {
    name: String,
    warps_per_block: usize,
    profile: KernelProfile,
    grid_blocks: usize,
    /// The next block id the engine must request.
    next_block: usize,
    /// Whether the run has started, and the rule been applied.
    started: bool,
    /// The kernel, while it runs inline (or has not started).
    kernel: Option<SendKernel>,
    /// The producer thread the kernel moved to, until it stops.
    producer: Option<Producer>,
}

impl PrefetchKernel {
    /// Wraps `kernel`; whether it prefetches is decided when the run
    /// starts, by the spare-core rule. Outside a pool's [`RunSlots`] the
    /// calling thread counts as a runner from now until it exits.
    pub fn new(kernel: Box<dyn Kernel + Send>) -> Self {
        if !POOLED.get() {
            UNPOOLED.with(|_| ());
        }
        Self {
            name: kernel.name().to_string(),
            warps_per_block: kernel.warps_per_block(),
            profile: kernel.profile(),
            grid_blocks: kernel.grid_blocks(),
            next_block: 0,
            started: false,
            kernel: Some(kernel),
            producer: None,
        }
    }

    /// Wraps `kernel` with its producer thread already running, whatever
    /// the core count, so that tests exercise prefetching on any host.
    #[cfg(test)]
    pub(crate) fn with_producer(kernel: Box<dyn Kernel + Send>) -> Self {
        let mut k = Self::new(kernel);
        k.started = true;
        k.producer = k.kernel.take().map(Producer::spawn);
        k
    }

    /// Applies the spare-core rule on the run's first request.
    fn start(&mut self) {
        if !std::mem::replace(&mut self.started, true) && spare_core() {
            self.producer = self.kernel.take().map(Producer::spawn);
        }
    }
}

impl Kernel for PrefetchKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid_blocks(&self) -> usize {
        self.grid_blocks
    }

    fn warps_per_block(&self) -> usize {
        self.warps_per_block
    }

    fn block_trace(&mut self, block: usize, pim_enabled: bool) -> BlockTrace {
        assert!(
            block == self.next_block && block < self.grid_blocks,
            "block {block} requested out of order: expected block {} of {}",
            self.next_block,
            self.grid_blocks
        );
        self.start();
        self.next_block += 1;
        if let Some(k) = &mut self.kernel {
            return k.block_trace(block, pim_enabled);
        }
        match next_item(&mut self.producer) {
            Item::Block(b) => b,
            Item::Launch(_) => unreachable!("the producer ends a launch after its last block"),
        }
    }

    fn recycle(&mut self, spent: BlockTrace) {
        if let Some(k) = &mut self.kernel {
            k.recycle(spent);
        } else if let Some(p) = &self.producer {
            p.pipe.give_back(spent);
        }
    }

    fn next_launch(&mut self) -> bool {
        assert_eq!(
            self.next_block, self.grid_blocks,
            "next_launch before the grid drained (blocks requested, grid size)"
        );
        self.start();
        let next = match &mut self.kernel {
            Some(k) => k.next_launch().then(|| k.grid_blocks()),
            None => match next_item(&mut self.producer) {
                Item::Launch(next) => next,
                Item::Block(_) => unreachable!("the producer sends every block of the grid first"),
            },
        };
        self.next_block = 0;
        match next {
            Some(blocks) => {
                self.grid_blocks = blocks;
                true
            }
            None => {
                if let Some(Err(payload)) = self.producer.take().map(Producer::stop) {
                    panic::resume_unwind(payload);
                }
                false
            }
        }
    }

    fn profile(&self) -> KernelProfile {
        self.profile
    }
}

impl Drop for PrefetchKernel {
    fn drop(&mut self) {
        // A producer panic after the engine stopped listening has nowhere
        // to go: unwinding out of a drop would abort.
        let _ = self.producer.take().map(Producer::stop);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use super::*;
    use crate::isa::{WarpOp, WarpTrace};

    /// A kernel with the given grid size per launch, whose blocks name
    /// their launch and id. `token` lets a test see when it drops.
    struct Grids {
        grids: Vec<usize>,
        launch: usize,
        panic_at: Option<(usize, usize)>,
        token: Arc<()>,
    }

    impl Grids {
        fn new(grids: &[usize]) -> Self {
            Self {
                grids: grids.to_vec(),
                launch: 0,
                panic_at: None,
                token: Arc::new(()),
            }
        }
    }

    impl Kernel for Grids {
        fn name(&self) -> &str {
            "grids"
        }
        fn grid_blocks(&self) -> usize {
            self.grids[self.launch]
        }
        fn warps_per_block(&self) -> usize {
            1
        }
        fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
            if self.panic_at == Some((self.launch, block)) {
                panic!(
                    "grids kernel failed at launch {} block {block}",
                    self.launch
                );
            }
            let mut t = BlockTrace::default();
            let lanes = t.push_lanes([(self.launch * 1000 + block) as u64 * 64]);
            t.warps.push(WarpTrace {
                ops: vec![WarpOp::Load(lanes), WarpOp::Compute(block as u32 + 1)],
            });
            t
        }
        fn next_launch(&mut self) -> bool {
            self.launch += 1;
            self.launch < self.grids.len()
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile {
                pim_intensity: 0.0,
                divergence_ratio: 0.0,
            }
        }
    }

    /// Drives `k` to completion in the engine's order, recycling every
    /// block; returns the blocks per launch.
    fn drive(k: &mut dyn Kernel) -> Vec<Vec<BlockTrace>> {
        let mut launches = Vec::new();
        loop {
            let blocks: Vec<BlockTrace> = (0..k.grid_blocks())
                .map(|b| {
                    let t = k.block_trace(b, b % 2 == 0);
                    k.recycle(t.clone());
                    t
                })
                .collect();
            launches.push(blocks);
            if !k.next_launch() {
                return launches;
            }
        }
    }

    #[test]
    fn prefetched_stream_equals_the_inline_stream() {
        let grids = [3, 1, 200, 2];
        let inline = drive(&mut Grids::new(&grids));
        assert_eq!(
            inline.iter().map(Vec::len).collect::<Vec<_>>(),
            grids.to_vec()
        );
        let mut k = PrefetchKernel::with_producer(Box::new(Grids::new(&grids)));
        assert_eq!(Kernel::grid_blocks(&k), 3);
        assert_eq!(drive(&mut k), inline);
        assert!(k.producer.is_none(), "the producer stops with the run");
    }

    #[test]
    #[should_panic(expected = "block 1 requested out of order: expected block 0 of 3")]
    fn out_of_order_request_panics_naming_both_ids() {
        let mut k = PrefetchKernel::new(Box::new(Grids::new(&[3])));
        Kernel::block_trace(&mut k, 1, true);
    }

    #[test]
    #[should_panic(expected = "next_launch before the grid drained")]
    fn next_launch_before_the_grid_drains_panics() {
        let mut k = PrefetchKernel::with_producer(Box::new(Grids::new(&[3, 1])));
        Kernel::block_trace(&mut k, 0, true);
        Kernel::next_launch(&mut k);
    }

    #[test]
    fn producer_panic_resumes_on_the_engine_thread_with_its_message() {
        let mut kernel = Grids::new(&[4, 4]);
        kernel.panic_at = Some((1, 2));
        let mut k = PrefetchKernel::with_producer(Box::new(kernel));
        let payload = catch_unwind(AssertUnwindSafe(|| drive(&mut k))).unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("the original String payload");
        assert_eq!(msg, "grids kernel failed at launch 1 block 2");
    }

    #[test]
    fn dropping_mid_run_joins_the_producer_and_frees_the_kernel() {
        // A lookahead's worth of blocks and more: the producer is parked
        // on a full queue when the engine walks away.
        let kernel = Grids::new(&[LOOKAHEAD * 4]);
        let token = Arc::clone(&kernel.token);
        let mut k = PrefetchKernel::with_producer(Box::new(kernel));
        Kernel::block_trace(&mut k, 0, true);
        drop(k);
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "the kernel outlived its adapter"
        );
    }

    #[test]
    fn a_pool_as_wide_as_the_host_runs_its_kernels_inline() {
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let slots = RunSlots::reserve(cores);
        thread::scope(|scope| {
            scope.spawn(|| {
                slots.work(|| {
                    assert!(POOLED.get());
                    let mut k = PrefetchKernel::new(Box::new(Grids::new(&[2])));
                    Kernel::block_trace(&mut k, 0, true);
                    assert!(k.producer.is_none() && k.kernel.is_some());
                });
                assert!(!POOLED.get());
            });
        });
    }

    #[test]
    fn spare_core_rule_wants_two_cores_per_runner() {
        for (runs, cores, pays) in [
            (1, 1, false),
            (1, 2, true),
            (2, 2, false),
            (2, 3, false),
            (2, 4, true),
            (3, 4, false),
            (8, 16, true),
        ] {
            assert_eq!(
                prefetch_pays(runs, cores),
                pays,
                "{runs} runners, {cores} cores"
            );
        }
    }
}
