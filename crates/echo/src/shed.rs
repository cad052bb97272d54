//! The shed policy: what a full bounded queue gives up first.
//!
//! The retry queue, the ingress buffers and the sharded runtime's
//! mailboxes all overflow the same way, so the choice is written once, as
//! a pure function of the queue's contents: the victim is the earliest
//! frame of the lowest [`proto::shed_class`] (unordered telemetry, then
//! sequenced, then reliable events; control frames are never shed), and a
//! victim that is one fragment of a split message takes its queued set
//! mates along, so no orphans travel on to rot in a reassembly buffer.
//! Each queue keeps its own admission test, removal and detail strings.

use crate::proto;

/// Picks the frames a full queue sheds. `queue` yields every queued
/// frame's flow key and raw bytes in queue order; two frames belong to one
/// flow when their keys are equal (a message's fragments share a seq only
/// within a flow — a raw fan-out reuses one seq across destinations).
///
/// Returns the removal positions, victim first, then its fragment-set
/// mates in queue order. Each position is valid once the ones before it
/// have been removed, so a caller sheds with `for pos in set {
/// queue.remove(pos) … }`. `None` when nothing is sheddable — the queue
/// holds only control frames.
pub(crate) fn shed_set<'a, K: PartialEq>(
    queue: impl Iterator<Item = (K, &'a [u8])> + Clone,
) -> Option<Vec<usize>> {
    let mut best: Option<(u8, usize, K, &[u8])> = None;
    for (i, (flow, bytes)) in queue.clone().enumerate() {
        if let Some(class) = proto::shed_class(bytes) {
            if best.as_ref().is_none_or(|(c, ..)| class < *c) {
                best = Some((class, i, flow, bytes));
            }
        }
    }
    let (_, victim, flow, bytes) = best?;
    let mut set = vec![victim];
    if let Some((seq, _, _)) = proto::peek_frag(bytes).filter(|&(_, _, count)| count > 1) {
        for (i, (key, b)) in queue.enumerate() {
            let mate = i != victim
                && key == flow
                && proto::peek_frag(b).is_some_and(|(s, _, c)| s == seq && c > 1);
            if mate {
                // Gone before this one: every earlier mate, and the victim
                // when it sat ahead in the queue.
                set.push(i - (set.len() - 1) - usize::from(i > victim));
            }
        }
    }
    Some(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ChannelId, QosTier};
    use crate::{EchoSystem, EchoVersion, ProcessId};
    use morph::DeadReason;
    use pbio::WireBytes;
    use simnet::{LinkParams, XorShift64};

    const U: QosTier = QosTier::UnorderedUnreliable;
    const S: QosTier = QosTier::SequencedUnreliable;
    const R: QosTier = QosTier::Reliable;

    fn event(tier: QosTier, seq: u64, index: u16, count: u16) -> WireBytes {
        proto::frame_qos(
            proto::FRAME_EVENT,
            ChannelId(1),
            seq,
            proto::NO_TRACE,
            tier,
            index,
            count,
            0,
            b"x",
        )
    }

    fn control(seq: u64) -> WireBytes {
        proto::frame(proto::FRAME_CONTROL, ChannelId(1), seq, proto::NO_TRACE, b"x")
    }

    /// Applies a shed set the way every call site does and returns the
    /// original positions it removed, in removal order.
    fn original_positions(len: usize, set: &[usize]) -> Vec<usize> {
        let mut left: Vec<usize> = (0..len).collect();
        set.iter().map(|&pos| left.remove(pos)).collect()
    }

    #[test]
    fn shed_set_follows_the_policy_table() {
        // (what the case shows, queue as (flow, frame), original positions shed)
        type Case = (&'static str, Vec<(u8, WireBytes)>, Option<Vec<usize>>);
        let cases: Vec<Case> = vec![
            (
                "class order: unordered before sequenced before reliable",
                vec![(0, event(R, 1, 0, 1)), (0, event(S, 2, 0, 1)), (0, event(U, 3, 0, 1))],
                Some(vec![2]),
            ),
            (
                "sequenced goes before reliable when no telemetry is queued",
                vec![(0, event(R, 1, 0, 1)), (0, event(S, 2, 0, 1)), (0, event(R, 3, 0, 1))],
                Some(vec![1]),
            ),
            (
                "earliest of the lowest class",
                vec![(0, event(R, 1, 0, 1)), (0, event(U, 2, 0, 1)), (0, event(U, 3, 0, 1))],
                Some(vec![1]),
            ),
            (
                "mates follow the victim in queue order; other flows and seqs stay",
                vec![
                    (0, control(9)),
                    (0, event(R, 5, 0, 3)),
                    (1, event(R, 5, 1, 3)),
                    (0, event(R, 6, 0, 2)),
                    (0, event(R, 5, 1, 3)),
                    (0, event(R, 5, 2, 3)),
                ],
                Some(vec![1, 4, 5]),
            ),
            (
                "a mate queued ahead of the victim still goes, after it",
                // Only a damaged frame gets here: the first fragment's
                // kind byte no longer says "event", so it is not a
                // candidate, yet it still reads as a set mate.
                vec![(0, corrupt_kind(event(R, 5, 0, 2))), (0, event(R, 5, 1, 2))],
                Some(vec![1, 0]),
            ),
            (
                "whole frames sharing a seq are not a set",
                vec![(0, event(U, 5, 0, 1)), (0, event(U, 5, 0, 1))],
                Some(vec![0]),
            ),
            (
                "control is never shed, even ahead of every event",
                vec![(0, control(1)), (0, control(2)), (0, event(R, 3, 0, 1))],
                Some(vec![2]),
            ),
            ("an all-control queue sheds nothing", vec![(0, control(1)), (0, control(2))], None),
            ("an empty queue sheds nothing", vec![], None),
        ];
        for (what, queue, expect) in cases {
            let set = shed_set(queue.iter().map(|(flow, b)| (*flow, &**b)));
            let got = set.map(|s| original_positions(queue.len(), &s));
            assert_eq!(got, expect, "{what}");
        }
    }

    fn corrupt_kind(frame: WireBytes) -> WireBytes {
        let mut bytes = frame.to_vec();
        bytes[0] ^= 0x40;
        WireBytes::from(bytes)
    }

    /// `n` random frames from three senders: mixed tiers, whole messages,
    /// fragments of 2–4-part messages (often several of one set), control.
    fn random_queue(rng: &mut XorShift64, n: usize) -> Vec<(usize, WireBytes)> {
        (0..n)
            .map(|_| {
                let sender = 1 + rng.below(3) as usize;
                let seq = rng.below(6);
                let frame = match rng.below(8) {
                    0 => control(seq),
                    1..=3 => event([U, S, R][rng.below(3) as usize], seq, 0, 1),
                    _ => {
                        let count = 2 + rng.below(3) as u16;
                        let tier = [U, S, R][(seq % 3) as usize];
                        event(tier, seq, rng.below(u64::from(count)) as u16, count)
                    }
                };
                (sender, frame)
            })
            .collect()
    }

    #[test]
    fn the_three_queues_pick_identical_victims_for_identical_contents() {
        let seed = 0x5ED5;
        let mut rng = XorShift64::new(seed);
        for round in 0..64 {
            let n = 4 + rng.below(12) as usize;
            let queue = random_queue(&mut rng, n);
            // A control newcomer: admitted past the bound by the two
            // admission queues, never a candidate in the mailbox, so all
            // three choose among exactly the `n` queued frames.
            let newcomer = (1, control(99));
            let expect: Vec<Vec<u8>> = shed_set(queue.iter().map(|(s, b)| (*s, &**b)))
                .map_or(Vec::new(), |set| {
                    original_positions(n, &set).iter().map(|&i| queue[i].1.to_vec()).collect()
                });

            // The retry queue (every send towards `dst` refused by a down
            // link; victims dead-letter at their sender — one flow, so one
            // sender), the ingress buffer of `dst`, and a one-shard
            // mailbox bounded at `n` over an ideal wire (send order is
            // arrival order).
            for site in ["retry", "ingress", "mailbox"] {
                let mut sys = EchoSystem::new();
                for name in ["dst", "a", "b", "c"] {
                    sys.add_process(name, EchoVersion::V2);
                }
                sys.connect_all(LinkParams::ideal());
                sys.set_retry_queue_capacity(n);
                sys.set_ingress_capacity(n);
                for sender in 1..=3 {
                    sys.set_link_up(ProcessId(sender), ProcessId(0), site != "retry");
                }
                for (sender, frame) in queue.iter().chain([&newcomer]) {
                    match site {
                        "retry" => sys.send_with_retry(*sender, 0, frame.clone(), None).unwrap(),
                        "ingress" => sys.buffer_ingress(0, *sender, frame.clone()),
                        _ => {
                            let (from, to) = (sys.net_ids[*sender], sys.net_ids[0]);
                            sys.net.send_traced(from, to, frame.clone(), None).unwrap();
                        }
                    }
                }
                if site == "mailbox" {
                    sys.run_sharded(1, n);
                }
                let shed: Vec<Vec<u8>> = (0..4)
                    .flat_map(|p| sys.dead_letters(ProcessId(p)))
                    .filter(|l| l.reason == DeadReason::Shed)
                    .map(|l| l.bytes.to_vec())
                    .collect();
                assert_eq!(shed, expect, "{site} queue, seed {seed:#x} round {round}");
            }
        }
    }
}
