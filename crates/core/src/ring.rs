//! The bounded blocking hand-off between two threads, shared by the sharded
//! runtime (feeder → shard worker, [`crate::sharded`]) and the read-ahead
//! source (decoder → driver, [`crate::monitor::ReadAhead`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What a [`Ring`] carries. Some messages are paid for with storage the
/// receiver has emptied, so that a steady stream of them allocates nothing.
pub(crate) trait Parcel {
    /// The emptied storage that travels back from receiver to sender.
    type Spare;
    /// True when sending this message takes a spare in exchange, if the
    /// ring holds one.
    fn takes_spare(&self) -> bool;
}

/// Why [`Ring::send`] did not enqueue.
#[derive(Debug)]
pub(crate) enum SendError {
    /// The ring stayed full for the whole timeout (the time waited).
    Stalled(Duration),
    /// The other end is gone.
    Closed,
}

struct RingState<M: Parcel> {
    queue: VecDeque<M>,
    /// How many of the queued messages are blocks (take a spare).
    blocks: usize,
    /// Emptied blocks on their way back to the feeder, newest last.
    spare: Vec<M::Spare>,
    closed: bool,
}

/// One hand-off: a FIFO of at most `depth` blocks from the feeder to the
/// worker, and the emptied blocks coming back. Both sides block on a
/// condition variable instead of polling — the worker while the queue is
/// empty, the feeder from when it is full until it is half empty — and each
/// takes the lock once per message: the feeder leaves with a spare block
/// for its next fill, the worker arrives with the block it has just
/// emptied. At most `depth + 2` blocks ever exist (one filling, `depth`
/// queued, one being processed), so once they do the hand-off allocates
/// nothing.
///
/// A control message carries no block. It takes one of `depth` slots like
/// a block does, except that one control message fits beside a full ring
/// of blocks when no other is queued: a message the feeder keeps in flight
/// at all times (the sharded runtime's drain) costs the worker none of its
/// runway.
pub(crate) struct Ring<M: Parcel> {
    state: Mutex<RingState<M>>,
    depth: usize,
    slot_free: Condvar,
    msg_ready: Condvar,
}

/// The feeder's or the worker's hold on a [`Ring`]. Dropping either one —
/// at flush, on abandon, or by a worker unwinding — closes the ring: a
/// closed ring refuses sends, and hands out what is still queued before
/// `recv` reports the end.
pub(crate) struct RingEnd<M: Parcel>(Arc<Ring<M>>);

impl<M: Parcel> std::ops::Deref for RingEnd<M> {
    type Target = Ring<M>;
    fn deref(&self) -> &Ring<M> {
        &self.0
    }
}

impl<M: Parcel> Drop for RingEnd<M> {
    fn drop(&mut self) {
        self.lock().closed = true;
        self.slot_free.notify_all();
        self.msg_ready.notify_all();
    }
}

impl<M: Parcel> Ring<M> {
    pub(crate) fn pair(depth: usize) -> (RingEnd<M>, RingEnd<M>) {
        let ring = Arc::new(Ring {
            state: Mutex::new(RingState {
                queue: VecDeque::with_capacity(depth + 2),
                blocks: 0,
                spare: Vec::with_capacity(depth + 2),
                closed: false,
            }),
            depth,
            slot_free: Condvar::new(),
            msg_ready: Condvar::new(),
        });
        (RingEnd(Arc::clone(&ring)), RingEnd(ring))
    }

    /// Every update under the lock is one push, pop or flag store, so the
    /// state is valid wherever a holder might have panicked and a poisoned
    /// lock is taken over as it is.
    fn lock(&self) -> MutexGuard<'_, RingState<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue `msg`, waiting up to `timeout` for a free slot. A block
    /// sent is paid for with a spare one when the worker has returned any.
    pub(crate) fn send(&self, msg: M, timeout: Duration) -> Result<Option<M::Spare>, SendError> {
        let started = Instant::now();
        let block = msg.takes_spare();
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(SendError::Closed);
            }
            let fits = if block {
                state.blocks < self.depth
            } else {
                state.queue.len() < self.depth || state.queue.len() == state.blocks
            };
            if fits {
                break;
            }
            let waited = started.elapsed();
            if waited >= timeout {
                return Err(SendError::Stalled(waited));
            }
            state = self
                .slot_free
                .wait_timeout(state, timeout - waited)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let spare = if block {
            state.blocks += 1;
            state.spare.pop()
        } else {
            None
        };
        state.queue.push_back(msg);
        // One producer, one consumer: the worker can only be waiting if
        // the queue was empty.
        if state.queue.len() == 1 {
            self.msg_ready.notify_one();
        }
        Ok(spare)
    }

    /// Wait until the other end is dropped.
    pub(crate) fn wait_closed(&self) {
        let mut state = self.lock();
        while !state.closed {
            state = self
                .slot_free
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Return `emptied` to the feeder and take the next message, waiting
    /// for one; `None` once the ring is closed and drained.
    pub(crate) fn recv(&self, emptied: Option<M::Spare>) -> Option<M> {
        let mut state = self.lock();
        state.spare.extend(emptied);
        loop {
            if let Some(msg) = state.queue.pop_front() {
                if msg.takes_spare() {
                    state.blocks -= 1;
                }
                // Likewise the feeder can only be waiting if the queue has
                // been full, and it is woken once the queue has drained to
                // half, not at the first free slot: it then refills several
                // slots per wake-up while the worker still has the other
                // half to work on (a wake-up costs the worker ~9 µs here,
                // a fifth of a 1024-packet block's engine time).
                if state.queue.len() == self.depth / 2 {
                    self.slot_free.notify_one();
                }
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            state = self
                .msg_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A stand-in for a shard's traffic: blocks of packet indices that are
    /// paid for with spares, and control messages that are not.
    enum Msg {
        Block(Vec<u64>),
        Rotate(u64),
    }

    impl Parcel for Msg {
        type Spare = Vec<u64>;
        fn takes_spare(&self) -> bool {
            matches!(self, Msg::Block(_))
        }
    }

    /// A block holding indices `first..first + n`.
    fn block_of(first: u64, n: u64) -> Msg {
        Msg::Block((first..first + n).collect())
    }

    const PATIENT: Duration = Duration::from_secs(30);

    #[test]
    fn ring_delivers_blocks_and_control_messages_in_send_order() {
        let (feeder, worker) = Ring::pair(4);
        feeder.send(block_of(0, 3), PATIENT).unwrap();
        feeder.send(Msg::Rotate(7), PATIENT).unwrap();
        feeder.send(block_of(3, 2), PATIENT).unwrap();
        feeder.send(Msg::Rotate(9), PATIENT).unwrap();
        drop(feeder);
        // A closed ring still hands out what was queued, then ends.
        let mut seen = Vec::new();
        while let Some(msg) = worker.recv(None) {
            seen.push(match msg {
                Msg::Block(b) => format!("block {b:?}"),
                Msg::Rotate(cutoff) => format!("rotate {cutoff}"),
            });
        }
        assert_eq!(
            seen,
            ["block [0, 1, 2]", "rotate 7", "block [3, 4]", "rotate 9"]
        );
    }

    #[test]
    fn full_ring_blocks_the_sender_until_one_recv() {
        let (feeder, worker) = Ring::pair(2);
        feeder.send(Msg::Rotate(0), PATIENT).unwrap();
        feeder.send(Msg::Rotate(1), PATIENT).unwrap();
        // Full: with no patience at all the send gives up at once.
        assert!(matches!(
            feeder.send(Msg::Rotate(2), Duration::ZERO),
            Err(SendError::Stalled(_))
        ));
        // With patience it waits; the only thing that can let it through is
        // the `recv` below, so the join proves the wake-up.
        let sender = thread::spawn(move || {
            let sent = feeder.send(Msg::Rotate(2), PATIENT);
            (feeder, sent)
        });
        assert!(matches!(worker.recv(None), Some(Msg::Rotate(0))));
        let (feeder, sent) = sender.join().unwrap();
        assert!(sent.is_ok());
        // And it never held more than `depth`: full again.
        assert!(matches!(
            feeder.send(Msg::Rotate(3), Duration::ZERO),
            Err(SendError::Stalled(_))
        ));
        assert!(matches!(worker.recv(None), Some(Msg::Rotate(1))));
        assert!(matches!(worker.recv(None), Some(Msg::Rotate(2))));
    }

    #[test]
    fn one_control_message_rides_beside_a_full_ring_of_blocks() {
        let (feeder, worker) = Ring::pair(2);
        feeder.send(block_of(0, 1), PATIENT).unwrap();
        feeder.send(block_of(1, 1), PATIENT).unwrap();
        // Full of blocks: no third block, but one control message fits...
        assert!(matches!(
            feeder.send(block_of(2, 1), Duration::ZERO),
            Err(SendError::Stalled(_))
        ));
        feeder.send(Msg::Rotate(0), Duration::ZERO).unwrap();
        // ...and only one.
        assert!(matches!(
            feeder.send(Msg::Rotate(1), Duration::ZERO),
            Err(SendError::Stalled(_))
        ));
        // The control message holds no block slot: one block taken off
        // makes room for the next block, ahead of which it stays queued.
        assert!(matches!(worker.recv(None), Some(Msg::Block(_))));
        feeder.send(block_of(2, 1), Duration::ZERO).unwrap();
        assert!(matches!(worker.recv(None), Some(Msg::Block(b)) if b == [1]));
        assert!(matches!(worker.recv(None), Some(Msg::Rotate(0))));
        assert!(matches!(worker.recv(None), Some(Msg::Block(b)) if b == [2]));
    }

    #[test]
    fn blocked_sender_stalls_after_the_timeout_and_not_before() {
        let (feeder, _worker) = Ring::pair(1);
        feeder.send(Msg::Rotate(0), PATIENT).unwrap();
        let timeout = Duration::from_millis(30);
        let started = Instant::now();
        let sent = feeder.send(Msg::Rotate(1), timeout);
        let elapsed = started.elapsed();
        let Err(SendError::Stalled(waited)) = sent else {
            panic!("a full ring took the message");
        };
        assert!(waited >= timeout, "gave up after {waited:?}");
        assert!(elapsed >= waited);
    }

    #[test]
    fn returned_block_is_the_one_reused_next() {
        let (feeder, worker) = Ring::pair(4);
        // Nothing has come back yet: the feeder must allocate.
        assert!(feeder.send(block_of(0, 5), PATIENT).unwrap().is_none());
        let Some(Msg::Block(mut first)) = worker.recv(None) else {
            panic!("expected the block");
        };
        let storage = first.as_ptr();
        first.clear();
        feeder.send(block_of(5, 5), PATIENT).unwrap();
        // The worker returns the emptied block as it takes the next one...
        assert!(matches!(worker.recv(Some(first)), Some(Msg::Block(_))));
        // ...a control message leaves it on the ring...
        assert!(feeder.send(Msg::Rotate(0), PATIENT).unwrap().is_none());
        // ...and the next block sent is paid for with it.
        let spare = feeder
            .send(block_of(10, 5), PATIENT)
            .unwrap()
            .expect("the emptied block");
        assert!(spare.is_empty());
        assert_eq!(spare.as_ptr(), storage);
    }
}
