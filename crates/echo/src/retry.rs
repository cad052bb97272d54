//! The retry path: Reliable frames the wire refused, waiting to be re-sent.
//!
//! Both operational refusals take one admission path into the bounded
//! [`RetryQueue`]. A **down link** enqueues the frame behind a capped,
//! jittered exponential backoff ([`RetryPolicy`]); every re-send the link
//! refuses again spends one attempt, and a spent budget gives the frame up
//! to its sender's dead-letter queue. A **crashed peer** parks the frame
//! until the crash window's scheduled end, spending none: burning attempts
//! into a process that cannot answer would waste the budget.

use morph::{DeadReason, RetryPolicy};
use obs::TraceCtx;
use pbio::WireBytes;
use simnet::{NetError, Network, NodeId};

use crate::proto;
use crate::shed::shed_set;
use crate::system::EchoSystem;
use crate::EchoError;

/// A frame whose send was refused, queued for re-sending.
#[derive(Debug)]
pub(crate) struct PendingFrame {
    pub from: usize,
    pub to: usize,
    /// View of the framed buffer; re-send attempts clone the view, not
    /// the bytes.
    pub bytes: WireBytes,
    /// Trace context the frame travels under (re-sends join it too).
    pub ctx: Option<TraceCtx>,
    /// Retries already spent.
    attempts: u32,
    /// Virtual time before which no re-send is attempted.
    next_attempt_ns: u64,
}

/// Why the wire refused a frame the queue may hold on to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The link is down or partitioned: back off and try again.
    LinkDown,
    /// The destination is inside a crash window ending at the given time
    /// (when the schedule knows one): wait it out.
    PeerDown(Option<u64>),
}

/// Sorts a refused send into what the queue can wait out — a down link, or
/// the *destination* inside a crash window — and what it cannot: an unknown
/// or unrouted peer is a configuration bug, and a send refused because the
/// *sender* is down is a caller bug.
fn refusal(e: NetError, net: &Network, to: NodeId, now_ns: u64) -> Result<Refusal, NetError> {
    match e {
        NetError::LinkDown(_, _) => Ok(Refusal::LinkDown),
        NetError::NodeDown(down) if down == to => {
            Ok(Refusal::PeerDown(net.node_down_until(down, now_ns)))
        }
        e => Err(e),
    }
}

#[derive(Debug)]
pub(crate) struct RetryQueue {
    /// Queued frames, oldest first.
    pending: Vec<PendingFrame>,
    /// Backoff and budget for re-sends.
    pub policy: RetryPolicy,
    /// Admissions past this many queued frames shed.
    pub capacity: usize,
}

impl RetryQueue {
    pub fn new(policy: RetryPolicy, capacity: usize) -> RetryQueue {
        RetryQueue { pending: Vec::new(), policy, capacity }
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// When a frame refused for `why`, with `attempts` already spent, is
    /// next worth sending.
    fn wake_at(&self, why: Refusal, attempts: u32, now_ns: u64) -> u64 {
        match why {
            Refusal::PeerDown(Some(until)) => until,
            _ => now_ns.saturating_add(self.policy.backoff_ns(attempts)),
        }
    }

    /// A due frame was refused again: schedules its next attempt. Only a
    /// link refusal spends one — a frame parked behind a crash window
    /// never reached the peer's memory — and the one past the budget
    /// returns false: the frame is to be given up.
    fn reschedule(&self, frame: &mut PendingFrame, why: Refusal, now_ns: u64) -> bool {
        frame.attempts += u32::from(why == Refusal::LinkDown);
        frame.next_attempt_ns = self.wake_at(why, frame.attempts, now_ns);
        frame.attempts <= self.policy.budget
    }

    /// Removes and returns every frame queued by `sender`, in queue order
    /// — a crashed process's retries die with its memory.
    pub fn take_from(&mut self, sender: usize) -> Vec<PendingFrame> {
        let (taken, kept) =
            std::mem::take(&mut self.pending).into_iter().partition(|p| p.from == sender);
        self.pending = kept;
        taken
    }
}

impl EchoSystem {
    /// Sends a frame, absorbing operational refusals into the retry queue
    /// (other network errors propagate). Admitting past the bound
    /// ([`crate::EchoConfig::retry_queue_capacity`]) sheds the oldest queued
    /// event frame of the lowest tier — or the newcomer itself when only
    /// control frames are queued — into the sender's dead-letter queue with
    /// [`DeadReason::Shed`]; control frames are admitted beyond the bound.
    pub(crate) fn send_with_retry(
        &mut self,
        from: usize,
        to: usize,
        bytes: WireBytes,
        ctx: Option<TraceCtx>,
    ) -> Result<(), EchoError> {
        // The clone hands the wire a view of the frame buffer; the bytes
        // themselves are never copied again after `proto::frame`.
        let sent = self.net.send_traced(self.net_ids[from], self.net_ids[to], bytes.clone(), ctx);
        let Err(e) = sent else { return Ok(()) };
        let now = self.net.now_ns();
        let why = refusal(e, &self.net, self.net_ids[to], now)?;
        if self.retry.len() >= self.retry.capacity {
            match shed_set(self.retry.pending.iter().map(|p| ((p.from, p.to), &*p.bytes))) {
                Some(set) => {
                    for (n, pos) in set.into_iter().enumerate() {
                        let p = self.retry.pending.remove(pos);
                        let detail = [
                            "retry queue full: lowest-tier event frame shed",
                            "retry queue full: fragment-set mate shed",
                        ][n.min(1)];
                        self.shed_at(p.from, &p.bytes, detail, p.ctx);
                    }
                }
                None if proto::shed_class(&bytes).is_some() => {
                    self.shed_at(from, &bytes, "retry queue full: event frame shed", ctx);
                    self.update_queue_depth();
                    return Ok(());
                }
                None => {}
            }
        }
        let (counter, instant) = match why {
            Refusal::LinkDown => (&self.metrics.retry_enqueued, "echo.retry.enqueued"),
            Refusal::PeerDown(_) => (&self.metrics.retry_parked, "echo.retry.parked"),
        };
        counter.inc();
        if let Some(c) = ctx {
            let route = [("from", &*self.nodes[from].name), ("to", &*self.nodes[to].name)];
            self.recorder.instant(c.trace, c.parent, instant, &route);
        }
        let (attempts, next_attempt_ns) = (0, self.retry.wake_at(why, 0, now));
        self.retry.pending.push(PendingFrame { from, to, bytes, ctx, attempts, next_attempt_ns });
        self.update_queue_depth();
        Ok(())
    }

    /// Re-attempts every due frame of the retry queue once, in queue
    /// order. Returns the earliest not-yet-due attempt time, if any frames
    /// remain queued.
    pub(crate) fn pump_pending(&mut self) -> Option<u64> {
        let now = self.net.now_ns();
        for mut p in std::mem::take(&mut self.retry.pending) {
            if p.next_attempt_ns <= now {
                let (from, to) = (self.net_ids[p.from], self.net_ids[p.to]);
                // Peer-down awareness: a frame due while its destination
                // is (still, or again) inside a crash window re-parks to
                // the window's scheduled end without being tried.
                let refused = match self.net.node_down_until(to, now) {
                    Some(until) => Ok(Refusal::PeerDown(Some(until))),
                    None => {
                        self.metrics.retry_attempts.inc();
                        match self.net.send_traced(from, to, p.bytes.clone(), p.ctx) {
                            Ok(_) => {
                                self.metrics.retry_delivered.inc();
                                continue;
                            }
                            Err(e) => refusal(e, &self.net, to, now),
                        }
                    }
                };
                let given_up = match refused {
                    Ok(why) => {
                        if why != Refusal::LinkDown {
                            self.metrics.retry_parked.inc();
                        }
                        let budget = self.retry.policy.budget;
                        (!self.retry.reschedule(&mut p, why, now))
                            .then(|| format!("gave up after {budget} retries"))
                    }
                    // The peer disappeared from the topology — config bug;
                    // surface it via the sender's quarantine, not a panic.
                    Err(e) => Some(e.to_string()),
                };
                if let Some(detail) = given_up {
                    self.metrics.retry_giveup.inc();
                    let (reason, stage) = (DeadReason::RetryExhausted, "send-retry");
                    self.nodes[p.from].dead_letter(reason, stage, &p.bytes, detail, p.ctx);
                    continue;
                }
            }
            self.retry.pending.push(p);
        }
        self.update_queue_depth();
        self.retry.pending.iter().map(|p| p.next_attempt_ns).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ChannelId;

    const POLICY: RetryPolicy =
        RetryPolicy { budget: 2, base_backoff_ns: 1_000, max_backoff_ns: 8_000, jitter_seed: 7 };

    fn queue() -> RetryQueue {
        RetryQueue::new(POLICY, 64)
    }

    /// Queues a frame the way `send_with_retry` admits one.
    fn push(q: &mut RetryQueue, from: usize, seq: u64, why: Refusal, now_ns: u64) {
        let bytes = proto::frame(proto::FRAME_EVENT, ChannelId(1), seq, proto::NO_TRACE, b"x");
        let next_attempt_ns = q.wake_at(why, 0, now_ns);
        q.pending.push(PendingFrame {
            from,
            to: 0,
            bytes,
            ctx: None,
            attempts: 0,
            next_attempt_ns,
        });
    }

    fn wake_times(q: &RetryQueue) -> Vec<u64> {
        q.pending.iter().map(|p| p.next_attempt_ns).collect()
    }

    #[test]
    fn link_down_enqueues_behind_a_backoff_and_peer_down_parks_until_the_restart() {
        let mut q = queue();
        push(&mut q, 1, 1, Refusal::LinkDown, 100);
        push(&mut q, 1, 2, Refusal::PeerDown(Some(50_000)), 100);
        // A crash window the schedule cannot date falls back to the backoff.
        push(&mut q, 1, 3, Refusal::PeerDown(None), 100);
        let backoff = 100 + POLICY.backoff_ns(0);
        assert_eq!(wake_times(&q), [backoff, 50_000, backoff]);
    }

    #[test]
    fn link_refusals_spend_the_budget_and_parking_spends_nothing() {
        let mut q = queue();
        push(&mut q, 1, 1, Refusal::LinkDown, 0);
        let mut p = q.pending.pop().unwrap();
        // A peer that stays down re-parks the frame as often as it likes.
        for now in (1..=10).map(|n| n * 500) {
            assert!(q.reschedule(&mut p, Refusal::PeerDown(Some(now + 500)), now));
            assert_eq!((p.attempts, p.next_attempt_ns), (0, now + 500));
        }
        // A link that stays down backs off further with every attempt
        // and, one past the budget, gives the frame up.
        for attempt in 1..=POLICY.budget {
            assert!(q.reschedule(&mut p, Refusal::LinkDown, 7_000));
            assert_eq!(p.next_attempt_ns, 7_000 + POLICY.backoff_ns(attempt), "capped backoff");
        }
        // Parking in between neither spends nor refunds.
        assert!(q.reschedule(&mut p, Refusal::PeerDown(None), 8_000));
        assert_eq!(p.next_attempt_ns, 8_000 + POLICY.backoff_ns(POLICY.budget));
        assert!(!q.reschedule(&mut p, Refusal::LinkDown, 9_000), "attempt budget + 1 gives up");
    }

    #[test]
    fn a_never_backoff_waits_forever_instead_of_wrapping() {
        let never = RetryPolicy { base_backoff_ns: u64::MAX, max_backoff_ns: u64::MAX, ..POLICY };
        let mut q = RetryQueue::new(never, 64);
        push(&mut q, 1, 1, Refusal::LinkDown, 5_000);
        assert_eq!(wake_times(&q), [u64::MAX]);
        let mut p = q.pending.pop().unwrap();
        assert!(q.reschedule(&mut p, Refusal::LinkDown, 9_000));
        assert_eq!(p.next_attempt_ns, u64::MAX);
    }

    #[test]
    fn a_crashed_senders_frames_leave_in_queue_order() {
        let mut q = queue();
        for (from, seq) in [(1, 1), (2, 2), (1, 3), (3, 4), (1, 5)] {
            push(&mut q, from, seq, Refusal::LinkDown, 0);
        }
        let seqs = |frames: &[PendingFrame]| -> Vec<u64> {
            frames.iter().map(|p| proto::peek_frag(&p.bytes).unwrap().0).collect()
        };
        assert_eq!(seqs(&q.take_from(1)), [1, 3, 5]);
        assert_eq!(seqs(&q.pending), [2, 4]);
        assert_eq!(q.len(), 2);
    }
}
