//! The round lifecycle and the loss/accuracy reduction the seven
//! baseline trainers share, over the [`Exchange`] fabric of `saps-core`
//! (re-exported here: [`Direct`] in memory, `saps_cluster::Framed` on
//! the wire).

pub use saps_core::{Direct, Exchange, Node, Payload, Shape};
use saps_core::{RoundCtx, RoundReport};

/// One worker's `(rank, (Σ loss, Σ accuracy))` over its local steps of
/// a round — kept per rank so the sums can cross the fabric before they
/// are reduced to a mean.
pub(crate) type WorkerStats = (usize, (f64, f64));

/// Runs `body` as round `*rounds` between the fabric's round hooks and
/// closes the accountant's round — the one round lifecycle all seven
/// trainers share. A failed round leaves `*rounds` and the accountant
/// untouched.
pub(crate) fn run_round<X: Exchange>(
    x: &mut X,
    rounds: &mut u64,
    ctx: &mut RoundCtx<'_>,
    body: impl FnOnce(&mut X, u64, &mut RoundCtx<'_>) -> Result<RoundReport, X::Error>,
) -> Result<RoundReport, X::Error> {
    x.begin_round(*rounds, ctx);
    let stepped = body(x, *rounds, ctx);
    let rep = x.end_round(ctx, stepped)?;
    ctx.traffic.end_round();
    *rounds += 1;
    Ok(rep)
}

/// Every reporting worker ships its `(Σ loss, Σ acc)` to the
/// coordinator, which folds what it received in the order of
/// `per_worker` (ascending rank at every call site). Returns the sums.
pub(crate) fn reduce_stats<X: Exchange>(
    x: &mut X,
    per_worker: &[WorkerStats],
) -> Result<(f64, f64), X::Error> {
    for &(rank, (loss, acc)) in per_worker {
        x.send(rank, Node::Coordinator, Payload::Stats { loss, acc })?;
    }
    let mut sums = (0.0, 0.0);
    for &(rank, _) in per_worker {
        match x.recv(Node::Coordinator, rank, Shape::Stats)? {
            Payload::Stats { loss, acc } => sums = (sums.0 + loss, sums.1 + acc),
            _ => unreachable!("recv returns the requested shape"),
        }
    }
    Ok(sums)
}

/// [`reduce_stats`] over one report per active worker, reduced to the
/// round's mean `(loss, accuracy)`.
pub(crate) fn mean_stats<X: Exchange>(
    x: &mut X,
    per_worker: &[WorkerStats],
) -> Result<(f32, f32), X::Error> {
    let (loss, acc) = reduce_stats(x, per_worker)?;
    let n = per_worker.len().max(1) as f64;
    Ok(((loss / n) as f32, (acc / n) as f32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fold_in_the_listed_order_and_cost_nothing() {
        let mut x = Direct::new();
        let per_worker = [(0, (1.0, 0.5)), (3, (2.0, 0.25))];
        assert_eq!(reduce_stats(&mut x, &per_worker), Ok((3.0, 0.75)));
        assert_eq!(
            Payload::Stats {
                loss: 1.0,
                acc: 0.5
            }
            .value_bytes(),
            0
        );
    }
}
