//! Dispatch: what happens to a frame once it has left the wire. Each
//! delivery is handled by the receiving node and its [`FrameOutcome`]
//! settled: counted, journaled, follow-ups sent.

use pbio::WireBytes;

use crate::journal::JournalEntry;
use crate::node::{Disposition, FrameOutcome};
use crate::system::{wire_ctx, EchoSystem};

impl EchoSystem {
    /// Dispatches one wire frame through the receiving process, accounting
    /// its disposition and sending any follow-up frames.
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
