//! Partition semantics and fault-plan behavior at the simulator level:
//! what happens to traffic already in flight when a link goes down, how
//! sends behave after heal, and how a [`FaultPlan`] accounts for every
//! fault it injects.

use std::sync::Arc;

use obs::Registry;

use crate::{FaultPlan, LinkParams, NetError, Network, NodeId};

fn pair(params: LinkParams) -> (Network, NodeId, NodeId) {
    let mut net = Network::new();
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(a, b, params);
    (net, a, b)
}

#[test]
fn in_flight_messages_survive_partition() {
    // Three messages queued behind each other; the link goes down after the
    // first is delivered. The remaining two were already "on the wire" and
    // must still arrive, in order, at their original times.
    let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000 });
    let t1 = net.send(a, b, vec![1; 1000]).unwrap();
    let t2 = net.send(a, b, vec![2; 1000]).unwrap();
    let t3 = net.send(a, b, vec![3; 1000]).unwrap();
    assert!(t1 < t2 && t2 < t3);

    let d1 = net.step().unwrap();
    assert_eq!(d1.payload[0], 1);
    net.set_link_up(a, b, false);

    let d2 = net.step().unwrap();
    let d3 = net.step().unwrap();
    assert_eq!((d2.payload[0], d2.at_ns), (2, t2));
    assert_eq!((d3.payload[0], d3.at_ns), (3, t3));
    assert!(net.step().is_none());
}

#[test]
fn send_after_heal_orders_after_in_flight_traffic() {
    // A message sent after a partition heals must not overtake traffic that
    // was already in flight before the partition — the transmitter's
    // next_free_ns survives the down/up cycle.
    let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000 });
    let t_old = net.send(a, b, vec![1; 1000]).unwrap(); // 1 s of tx time
    net.set_link_up(a, b, false);
    assert_eq!(net.send(a, b, vec![2]).unwrap_err(), NetError::LinkDown(a, b));
    net.set_link_up(a, b, true);
    let t_new = net.send(a, b, vec![2]).unwrap();
    assert!(t_new > t_old, "healed send queues behind pre-partition traffic");
    assert_eq!(net.step().unwrap().payload[0], 1);
    assert_eq!(net.step().unwrap().payload[0], 2);
}

#[test]
fn partition_failures_do_not_consume_link_time() {
    // A refused send must not advance the transmitter: after heal, delivery
    // times look exactly as if the failed attempts never happened.
    let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000 });
    let reg = Arc::new(Registry::new());
    net.attach_registry(Arc::clone(&reg));
    net.set_link_up(a, b, false);
    for _ in 0..5 {
        assert!(net.send(a, b, vec![0; 1000]).is_err());
    }
    net.set_link_up(a, b, true);
    let t = net.send(a, b, vec![0; 1000]).unwrap();
    assert_eq!(t, 1_000_000, "only the successful send consumed tx time");
    assert_eq!(reg.counter("simnet.link.a->b.messages").get(), 1);
}

#[test]
fn scheduled_partition_window_blocks_then_heals() {
    let (mut net, a, b) = pair(LinkParams::ideal());
    net.set_fault_plan(a, b, FaultPlan::new(7).partition(1_000, 2_000));

    // Before the window: traffic flows.
    net.send(a, b, vec![1]).unwrap();
    assert_eq!(net.step().unwrap().payload, vec![1]);

    // Inside the window: refused with LinkDown and counted.
    net.advance_ns(1_500);
    assert_eq!(net.send(a, b, vec![2]).unwrap_err(), NetError::LinkDown(a, b));
    assert_eq!(net.fault_stats(a, b).unwrap().partition_blocked, 1);
    // The reverse direction has its own window (same plan).
    assert_eq!(net.send(b, a, vec![2]).unwrap_err(), NetError::LinkDown(b, a));

    // After the window: healed without any administrative action.
    net.advance_ns(1_000);
    net.send(a, b, vec![3]).unwrap();
    assert_eq!(net.step().unwrap().payload, vec![3]);
    let totals = net.fault_totals();
    assert_eq!(totals.partition_blocked, 2);
    assert_eq!(totals.dropped, 0);
}

#[test]
fn fault_plan_accounting_identity_holds() {
    // Every copy that enters the wire is either delivered or dropped:
    //   messages carried == deliveries + dropped
    // and deliveries == sends - dropped + duplicated.
    let (mut net, a, b) = pair(LinkParams::ideal());
    let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
    net.attach_registry(Arc::clone(&reg));
    net.set_fault_plan(
        a,
        b,
        FaultPlan::new(0xC0FFEE)
            .drop_per_mille(200)
            .duplicate_per_mille(150)
            .corrupt_per_mille(100)
            .jitter_ns(5_000),
    );

    const SENDS: u64 = 500;
    for i in 0..SENDS {
        net.send(a, b, vec![i as u8; 16]).unwrap();
    }
    let mut delivered = 0u64;
    net.run(|_, _| delivered += 1);

    let stats = net.fault_stats(a, b).unwrap();
    assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.corrupted > 0);
    assert_eq!(delivered, SENDS - stats.dropped + stats.duplicated);
    let messages = reg.counter("simnet.link.a->b.messages").get();
    assert_eq!(messages, delivered + stats.dropped);
    assert_eq!(reg.counter("simnet.link.a->b.bytes").get(), messages * 16);

    // The registry mirrors the same numbers.
    let snap = reg.snapshot();
    assert_eq!(snap.counter("simnet.messages"), Some(messages));
    assert_eq!(snap.counter("simnet.fault.dropped"), Some(stats.dropped));
    assert_eq!(snap.counter("simnet.fault.duplicated"), Some(stats.duplicated));
    assert_eq!(snap.counter("simnet.fault.corrupted"), Some(stats.corrupted));
}

#[test]
fn fault_sequences_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.set_fault_plan(
            a,
            b,
            FaultPlan::new(seed).drop_per_mille(300).corrupt_per_mille(200).jitter_ns(1_000),
        );
        for i in 0..200u64 {
            net.send(a, b, i.to_le_bytes().to_vec()).unwrap();
        }
        let mut log = Vec::new();
        net.run(|_, d| log.push((d.at_ns, d.payload.clone())));
        (log, net.fault_stats(a, b).unwrap())
    };
    assert_eq!(run(1), run(1), "same seed, same faults");
    assert_ne!(run(1).0, run(2).0, "different seed, different faults");
}

#[test]
fn corruption_flips_exactly_one_byte() {
    let (mut net, a, b) = pair(LinkParams::ideal());
    net.set_fault_plan(a, b, FaultPlan::new(99).corrupt_per_mille(1000));
    let original = vec![0xAAu8; 32];
    net.send(a, b, original.clone()).unwrap();
    let d = net.step().unwrap();
    let diffs: Vec<usize> = (0..original.len()).filter(|&i| d.payload[i] != original[i]).collect();
    assert_eq!(diffs.len(), 1, "exactly one byte differs");
    assert_eq!(net.fault_stats(a, b).unwrap().corrupted, 1);
}

#[test]
fn dropped_messages_are_silent_to_the_sender() {
    let (mut net, a, b) = pair(LinkParams::ideal());
    let reg = Arc::new(Registry::new());
    net.attach_registry(Arc::clone(&reg));
    net.set_fault_plan(a, b, FaultPlan::new(5).drop_per_mille(1000));
    // The send "succeeds" — loss is only visible to the receiver.
    net.send(a, b, vec![1, 2, 3]).unwrap();
    assert!(net.step().is_none(), "the message never arrives");
    assert_eq!(net.fault_stats(a, b).unwrap().dropped, 1);
    assert_eq!(reg.counter("simnet.link.a->b.messages").get(), 1, "it still used the wire");
}

#[test]
fn reordering_lets_later_traffic_overtake() {
    // Forced reordering holds a message back long enough that a later send
    // arrives first. With pm=1000 every message is "reordered", so give
    // only the first message the extra delay by clearing the plan after it.
    let (mut net, a, b) = pair(LinkParams::ideal());
    net.set_fault_plan(a, b, FaultPlan::new(3).reorder_per_mille(1000, 10_000));
    net.send(a, b, vec![1]).unwrap();
    net.clear_fault_plan(a, b);
    net.send(a, b, vec![2]).unwrap();
    assert_eq!(net.step().unwrap().payload, vec![2], "later send overtook");
    assert_eq!(net.step().unwrap().payload, vec![1]);
}

#[test]
fn clear_fault_plan_stops_injection() {
    let (mut net, a, b) = pair(LinkParams::ideal());
    net.set_fault_plan(a, b, FaultPlan::new(1).drop_per_mille(1000));
    net.send(a, b, vec![1]).unwrap();
    assert!(net.step().is_none());
    net.clear_fault_plan(a, b);
    assert!(net.fault_stats(a, b).is_none(), "stats go away with the plan");
    net.send(a, b, vec![2]).unwrap();
    assert_eq!(net.step().unwrap().payload, vec![2]);
}

#[test]
fn advance_ns_moves_clock_without_delivering() {
    let (mut net, a, b) = pair(LinkParams::lan());
    net.send(a, b, vec![1]).unwrap();
    let before = net.now_ns();
    net.advance_ns(1_000_000_000);
    assert_eq!(net.now_ns(), before + 1_000_000_000);
    // The queued delivery is now overdue but still delivered, stamped no
    // earlier than its scheduled time and never later than "now".
    let d = net.step().unwrap();
    assert!(d.at_ns <= net.now_ns());
    assert_eq!(net.now_ns(), before + 1_000_000_000, "clock does not rewind");
}
