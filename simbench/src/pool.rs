//! The benchmark's cell pool, for the runs where the library pools
//! (`run_matrix`, `run_source_sweep`) cannot be used: the traced runs,
//! whose cells need the seam wrappers, and the untraced matrix pass that
//! times each cell.
//!
//! It is the library's scheme: `available_parallelism` scoped workers
//! (capped at the cell count), each claiming the next unclaimed cell
//! index from a shared atomic, results stored by index. It adds what the
//! library pools do not expose: per-cell start/end times, a `cell` span
//! per cell on a `worker-N` track when tracing, and a caught panic per
//! cell instead of a torn-down scope.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use coolpim_telemetry::Tracer;

use crate::cells::panic_message;
use crate::wrap::Track;

/// Workers the library pools start for `cells` cells.
pub fn workers_for(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells)
        .max(1)
}

/// When one cell ran, and on which worker.
#[derive(Debug, Clone, Copy)]
pub struct CellTime {
    /// Worker index.
    pub worker: usize,
    /// Claim time.
    pub start: Instant,
    /// Completion time.
    pub end: Instant,
}

impl CellTime {
    /// Cell wall time (s).
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// How busy the pool was over one run of it.
#[derive(Debug, Clone, Copy)]
pub struct PoolShape {
    /// Workers started.
    pub workers: usize,
    /// Σ cell time / (workers × pool wall time).
    pub busy_frac: f64,
    /// Time from the first worker running out of cells to the last cell
    /// finishing (s).
    pub tail_s: f64,
}

/// The shape of a pool run that started at `start` and ran `times`.
pub fn shape(workers: usize, start: Instant, times: &[CellTime]) -> PoolShape {
    let end = times.iter().map(|t| t.end).max().unwrap_or(start);
    let wall = (end - start).as_secs_f64();
    let busy: f64 = times.iter().map(CellTime::secs).sum();
    // A worker goes idle when its last cell ends; one that never got a
    // cell was idle from the start.
    let first_idle = (0..workers)
        .map(|w| {
            times
                .iter()
                .filter(|t| t.worker == w)
                .map(|t| t.end)
                .max()
                .unwrap_or(start)
        })
        .min()
        .unwrap_or(start);
    PoolShape {
        workers,
        busy_frac: if wall > 0.0 {
            busy / (workers as f64 * wall)
        } else {
            0.0
        },
        tail_s: (end - first_idle).as_secs_f64(),
    }
}

/// Runs `cell(i, track)` for every `i < cells` on [`workers_for`] scoped
/// workers and returns the results in index order with their times. With
/// a `tracer`, each worker records on its own `worker-N` track and each
/// cell runs inside a `cell` span; `track` is that worker's track.
///
/// A panicking cell yields `Err(message)`. Its worker's track is then
/// abandoned (its open spans cannot be closed) and the worker's later
/// cells run untraced.
pub fn run_cells<T, F>(
    cells: usize,
    tracer: Option<&Tracer>,
    cell: F,
) -> Vec<(Result<T, String>, CellTime)>
where
    T: Send,
    F: Fn(usize, Option<&Track>) -> T + Sync,
{
    let workers = workers_for(cells);
    let next = AtomicUsize::new(0);
    let results = Mutex::new({
        let mut v = Vec::new();
        v.resize_with(cells, || None);
        v
    });
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (next, results, cell) = (&next, &results, &cell);
            scope.spawn(move || {
                let mut track: Option<Track> =
                    tracer.map(|t| Rc::new(RefCell::new(t.track(&format!("worker-{worker}")))));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    let tok = track.as_ref().map(|t| t.borrow_mut().begin("cell"));
                    let start = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| cell(i, track.as_ref())));
                    let end = Instant::now();
                    let r = match r {
                        Ok(v) => {
                            if let (Some(t), Some(tok)) = (track.as_ref(), tok) {
                                t.borrow_mut().end(tok);
                            }
                            Ok(v)
                        }
                        Err(payload) => {
                            // Flushing a track with open spans panics, so
                            // a torn track is leaked rather than dropped.
                            if let Some(t) = track.take() {
                                std::mem::forget(t);
                            }
                            Err(panic_message(payload.as_ref()))
                        }
                    };
                    let time = CellTime { worker, start, end };
                    results.lock().expect("a cell panicked while storing")[i] = Some((r, time));
                }
            });
        }
    });
    results
        .into_inner()
        .expect("a cell panicked while storing")
        .into_iter()
        .map(|r| r.expect("every cell index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_cell_order_and_panics_are_caught() {
        let tracer = Tracer::new();
        let out = run_cells(9, Some(&tracer), |i, _track| {
            if i == 4 {
                panic!("cell four");
            }
            i * 10
        });
        assert_eq!(out.len(), 9);
        for (i, (r, t)) in out.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i * 10),
                Err(e) => assert!(i == 4 && e.contains("cell four"), "{e}"),
            }
            assert!(t.end >= t.start && t.worker < workers_for(9));
        }
        let start = out.iter().map(|(_, t)| t.start).min().unwrap();
        let times: Vec<CellTime> = out.iter().map(|(_, t)| *t).collect();
        let s = shape(workers_for(9), start, &times);
        assert!(s.busy_frac >= 0.0 && s.busy_frac <= 1.0 + 1e-9 && s.tail_s >= 0.0);
    }
}
