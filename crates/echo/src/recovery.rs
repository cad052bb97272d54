//! Crash/restart choreography at the edges of a process's crash windows
//! ([`EchoSystem::set_crash_windows`]). Going down, the process loses its
//! volatile state, every loss counted (`echo.crash.lost.*`) and
//! dead-lettered; coming back up, the next incarnation bumps its epoch and
//! rebuilds from the journal's synced prefix alone — recovery is a pure
//! function of the journal.

use morph::DeadReason;
use obs::TraceCtx;

use crate::journal::JournalEntry;
use crate::proto::{self, ChannelId, QosTier};
use crate::system::{wire_ctx, EchoSystem};

impl EchoSystem {
    /// Applies every crash/restart boundary scheduled at or before
    /// `now_ns`, in deterministic order (time, restarts before crashes,
    /// node id — see [`simnet::Network::take_crash_transitions`]): a window
    /// opening crashes the owning process, a window closing restarts it.
    pub(crate) fn process_crash_transitions(&mut self, now_ns: u64) {
        for t in self.net.take_crash_transitions(now_ns) {
            let idx = t.node.index();
            if t.up {
                self.restart_node(idx);
            } else {
                self.crash_node(idx);
            }
        }
    }

    /// A crash window opens: the process drops its volatile state. What
    /// survives is exactly the journal's synced prefix plus durable
    /// configuration (channel ownership, memberships, formats); every loss
    /// is counted in `echo.crash.lost.*` and the lost frames dead-letter
    /// as [`DeadReason::CrashLost`], traces sealed with a `crash` stage.
    fn crash_node(&mut self, idx: usize) {
        self.metrics.crash_down.inc();
        self.journals.crash(idx);
        // Amnesia inside the node: duplicate state, sequenced watermarks,
        // peer epochs, reassembly partials (each dead-lettered there),
        // and warm morph decisions.
        let report = self.nodes[idx].crash_amnesia();
        self.metrics.crash_lost_dedup.add(report.dedup as u64);
        self.metrics.crash_lost_watermarks.add(report.watermarks as u64);
        self.metrics.crash_lost_partials.add(u64::from(report.partials));
        self.metrics.crash_lost_decisions.add(report.decisions as u64);
        // The in-flight retry queue dies with the process. Journaled
        // Reliable event frames are only *dropped* — the journal will
        // redeliver them at restart — everything else queued here is a
        // real loss and dead-letters.
        let journaled = self.journals.get(idx).is_some();
        for p in self.retry.take_from(idx) {
            self.metrics.crash_lost_retry.inc();
            let redelivered = journaled
                && p.bytes.first() == Some(&proto::FRAME_EVENT)
                && proto::peek_qos(&p.bytes) == Some(QosTier::Reliable);
            if !redelivered {
                let (lost, detail) = (DeadReason::CrashLost, "retry queue lost to process crash");
                self.nodes[idx].dead_letter(lost, "crash", &p.bytes, detail, p.ctx);
            }
        }
        self.update_queue_depth();
    }

    /// A crash window closes: the next incarnation starts. The epoch is
    /// bumped first; a resume handshake to every reachable peer travels
    /// ahead of the journal's redeliveries (sent at the same instant, it
    /// takes the lower wire sequence), so receivers fence the dead
    /// incarnation before its retransmitted traffic arrives. Redeliveries
    /// are restamped with the new epoch and re-journaled, so a second
    /// crash redelivers each message once, not once per incarnation.
    fn restart_node(&mut self, idx: usize) {
        self.metrics.crash_restarts.inc();
        let epoch = self.nodes[idx].bump_epoch();
        // Replay the synced prefix: receiver-side duplicate state and
        // watermarks, the sequence floor, and the redelivery obligations.
        let mut redeliveries = Vec::new();
        if let Some(rec) = self.journals.replay(idx) {
            let node = &mut self.nodes[idx];
            node.restore_seen(&rec.seen);
            for (&(channel, sender), &seq) in &rec.watermarks {
                node.restore_watermark(channel, sender, seq);
            }
            node.restore_seq_floor(rec.seq_floor);
            redeliveries = rec.unacked.into_iter().collect();
        }
        // Resume handshake: an empty frame whose header carries the new
        // incarnation, to every process this one has a link to.
        for peer in 0..self.nodes.len() {
            if peer == idx {
                continue;
            }
            let seq = self.nodes[idx].alloc_seq();
            let (wire_trace, ctx) = if self.tracing {
                let t = self.alloc_trace(idx);
                (t.0, Some(TraceCtx::root(t)))
            } else {
                (proto::NO_TRACE, None)
            };
            let (kind, tier) = (proto::FRAME_RESUME, QosTier::Reliable);
            let frame =
                proto::frame_qos(kind, ChannelId(0), seq, wire_trace, tier, 0, 1, epoch, b"");
            // Unlinked peers refuse the send with a routing error — not a
            // session this restart needs to resume.
            let _ = self.send_with_retry(idx, peer, frame, ctx);
        }
        // Redeliver every unacked Reliable frame in key order, under the
        // new epoch.
        for ((to, channel, seq, frag_index), frame) in redeliveries {
            let restamped = proto::restamp_epoch(&frame, epoch);
            let resent =
                JournalEntry::Sent { to, channel, seq, frag_index, frame: restamped.clone() };
            self.journals.append(idx, self.net.now_ns(), resent);
            self.journals.redelivered.inc();
            let ctx = wire_ctx(&restamped);
            let _ = self.send_with_retry(idx, to as usize, restamped, ctx);
        }
        // Floor the next incarnation's sequence numbers above everything
        // this one has allocated (handshakes and redeliveries included).
        let floor = self.nodes[idx].next_seq;
        self.journals.append(idx, self.net.now_ns(), JournalEntry::SeqFloor { next_seq: floor });
    }
}
