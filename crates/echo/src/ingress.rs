//! Ingress: what happens to a frame once it has left the wire. A
//! delivery to a paused process waits in its bounded buffer ([`Ingress`]);
//! everything else — live deliveries, and buffered ones once their process
//! resumes — is dispatched through the receiving node and its
//! [`FrameOutcome`] settled: counted, journaled, follow-ups sent.

use std::collections::{BTreeSet, VecDeque};

use pbio::WireBytes;

use crate::adaptive::Bound;
use crate::journal::JournalEntry;
use crate::node::{Disposition, FrameOutcome};
use crate::proto;
use crate::shed::shed_set;
use crate::system::{wire_ctx, EchoSystem};

/// One buffered delivery: `(sender index, arrival virtual time, frame)`.
/// The arrival stamp feeds the queue-wait stage histogram.
type IngressEntry = (usize, u64, WireBytes);

/// Per-process ingress buffers, filled while a process is paused and
/// drained by the run loop once it resumes. The struct also keeps which
/// processes hold anything and how much is held in total, so a loop turn
/// visits only backlogged processes and reads the depth gauge without
/// summing the population. Every mutation goes through the methods below.
#[derive(Default)]
pub(crate) struct Ingress {
    queues: Vec<VecDeque<IngressEntry>>,
    /// Processes with a non-empty queue, in process order (the drain
    /// order).
    backlogged: BTreeSet<usize>,
    /// Frames held across every queue.
    total: usize,
    /// Bound on each queue.
    pub bound: Bound,
}

impl Ingress {
    pub fn add_process(&mut self) {
        self.queues.push(VecDeque::new());
    }

    pub fn queue(&self, idx: usize) -> &VecDeque<IngressEntry> {
        &self.queues[idx]
    }

    /// Frames held across every queue.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Processes with a non-empty queue, in process order.
    pub fn backlogged(&self) -> &BTreeSet<usize> {
        &self.backlogged
    }

    fn push(&mut self, idx: usize, entry: IngressEntry) {
        self.queues[idx].push_back(entry);
        self.backlogged.insert(idx);
        self.total += 1;
    }

    fn remove(&mut self, idx: usize, pos: usize) -> Option<IngressEntry> {
        let entry = self.queues[idx].remove(pos)?;
        self.total -= 1;
        if self.queues[idx].is_empty() {
            self.backlogged.remove(&idx);
        }
        Some(entry)
    }

    /// Empties one process's queue, returning what it held in arrival
    /// order.
    pub fn take_all(&mut self, idx: usize) -> VecDeque<IngressEntry> {
        let held = std::mem::take(&mut self.queues[idx]);
        self.total -= held.len();
        self.backlogged.remove(&idx);
        held
    }
}

impl EchoSystem {
    /// Buffers a delivery for a paused process, shedding under pressure:
    /// when the (bounded) buffer is full, the oldest buffered event frame
    /// of the lowest shed class — or the newcomer, if only control frames
    /// are buffered — is quarantined at the receiver with
    /// [`DeadReason::Shed`]. Fragments shed as whole sets.
    pub(crate) fn buffer_ingress(&mut self, idx: usize, sender: usize, bytes: WireBytes) {
        let now = self.net.now_ns();
        let ctx = wire_ctx(&bytes);
        self.ingress.bound.arrived(1, now, &self.recorder, ctx);
        if self.ingress.queue(idx).len() >= self.ingress.bound.capacity_now() {
            match shed_set(self.ingress.queue(idx).iter().map(|(s, _, b)| (*s, &**b))) {
                Some(set) => {
                    for (n, pos) in set.into_iter().enumerate() {
                        let (_, _, victim) =
                            self.ingress.remove(idx, pos).expect("position in bounds");
                        let detail = [
                            "ingress buffer full: lowest-tier event frame shed",
                            "ingress buffer full: fragment-set mate shed",
                        ][n.min(1)];
                        self.shed_at(idx, &victim, detail, wire_ctx(&victim));
                    }
                }
                None if proto::shed_class(&bytes).is_some() => {
                    self.shed_at(idx, &bytes, "ingress buffer full: event frame shed", ctx);
                    self.update_queue_depth();
                    return;
                }
                // Control frames are never shed: admit beyond the bound.
                None => {}
            }
        }
        self.ingress.push(idx, (sender, now, bytes));
        self.update_queue_depth();
    }

    /// Dispatches every frame buffered for processes that are no longer
    /// paused — process order, arrival order within each. Returns how many
    /// frames were dispatched.
    pub(crate) fn drain_ingress(&mut self) -> usize {
        let mut n = 0;
        let now = self.net.now_ns();
        // Dispatching sends to the wire, never into an ingress buffer, so
        // the processes to drain are known up front.
        let resumed: Vec<usize> =
            self.ingress.backlogged().iter().copied().filter(|&idx| !self.paused[idx]).collect();
        for idx in resumed {
            while let Some((sender, arrived_ns, bytes)) = self.ingress.remove(idx, 0) {
                // Queue-wait attribution: virtual time spent buffered
                // before dispatch.
                self.metrics.queue_wait.record(now.saturating_sub(arrived_ns));
                self.dispatch_frame(idx, sender, &bytes);
                n += 1;
            }
        }
        if n > 0 {
            self.ingress.bound.drained(n, now, &self.recorder);
            self.update_queue_depth();
        }
        n
    }

    /// Dispatches one wire frame through the receiving process, accounting
    /// its disposition and sending any follow-up frames — the single path
    /// shared by live deliveries and drained ingress buffers.
    pub(crate) fn dispatch_frame(&mut self, idx: usize, sender: usize, bytes: &WireBytes) {
        // Stamp the receiver's clock so reassembly entries age against the
        // virtual time this frame arrives at.
        self.nodes[idx].set_now(self.net.now_ns());
        let outcome = self.nodes[idx].handle_frame(sender as u64, bytes);
        self.settle_outcome(idx, sender, outcome);
    }

    /// Settles a frame's [`FrameOutcome`]: counts its disposition and puts
    /// any follow-up frames on the wire. Split from [`Self::dispatch_frame`]
    /// so the sharded runtime can run `handle_frame` on worker threads and
    /// settle the results here, on the driver thread, where the network and
    /// system counters are single-threaded.
    pub(crate) fn settle_outcome(&mut self, idx: usize, sender: usize, outcome: FrameOutcome) {
        self.metrics.account(&outcome);
        if matches!(outcome.disposition, Disposition::FragmentBuffered(_)) {
            self.reassembling.insert(idx);
        }
        // Recovery bookkeeping (no-ops without journals): the receiver
        // persists its dedup note and sequenced watermark, and the
        // sender's journal discharges the redelivery obligation.
        let (now, from) = (self.net.now_ns(), sender as u64);
        if let Some((seq, frag_index, frag_count)) = outcome.seen {
            self.journals.append(idx, now, JournalEntry::seen(from, seq, frag_index, frag_count));
        }
        if let Some((channel, seq)) = outcome.watermark {
            self.journals.append(idx, now, JournalEntry::Watermark { channel, sender: from, seq });
        }
        if let Some((channel, seq, frag_index)) = outcome.ack {
            let acked = JournalEntry::Acked { to: idx as u64, channel, seq, frag_index };
            self.journals.append(sender, now, acked);
        }
        for out in outcome.outgoing {
            if let Some(&dst) = self.by_contact.get(&out.to_contact) {
                // Follow-up frames keep travelling under the trace of the
                // request that caused them (already in the frame header);
                // their hop spans root at that trace.
                let ctx = wire_ctx(&out.bytes);
                // Link-down refusals land in the retry queue; a member
                // with no route at all is dropped from this refresh (it
                // will resync on its next own request).
                let _ = self.send_with_retry(idx, dst, out.bytes, ctx);
            }
        }
    }

    /// Expires overdue partial fragment sets at every process that may
    /// hold any (`reassembling`, visited in process order; each node sweeps
    /// its channels in id order, so the pass is deterministic and expiries
    /// dead-letter in the order a sweep of the whole population would
    /// produce). Each expiry dead-letters inside the node as
    /// [`DeadReason::PartialFragments`] and counts here as
    /// `echo.frag.timeout`; the `echo.frag.buffered` gauge is refreshed to
    /// the surviving depth, and processes left holding nothing drop out of
    /// the set.
    pub(crate) fn sweep_reassembly(&mut self) {
        let now = self.net.now_ns();
        let mut depth = 0usize;
        self.reassembling.retain(|&idx| {
            let node = &mut self.nodes[idx];
            self.metrics.frag_timeout.add(u64::from(node.sweep_reassembly(now)));
            let held = node.reassembly_depth();
            depth += held;
            held > 0
        });
        self.metrics.frag_buffered.set(depth as i64);
    }
}
