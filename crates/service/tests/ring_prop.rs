//! Property tests for the bounded ingest ring.
//!
//! For any capacity and any randomized interleaving of producer pushes and
//! consumer pops:
//!
//! * **capacity** — the room taken never exceeds the capacity, except by a
//!   lone chunk heavier than the ring, which enters only an empty ring; a
//!   popped chunk keeps its room until it is released;
//! * **FIFO** — items come out in exactly the order they went in;
//! * **conservation** — every item pushed is either popped or still in the
//!   ring when it closes, and a closed ring drains before it ends;
//! * **recycling** — a released buffer comes back from the next push.
//!
//! Threaded tests then drive real producers and a consumer through tiny
//! rings (forcing blocking pushes) and check the same invariants against
//! wall-clock interleaving, and that a producer blocked for room wakes when
//! a held chunk's room frees.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;

use sbqa_service::BoundedRing;

/// One scripted step of the single-threaded interleaving.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Try to push the next sequence number with this weight.
    Push(usize),
    /// Take one chunk and hold its room (what the shard thread does).
    Pop,
    /// Release the oldest held chunk, handing its buffer back.
    Release,
    /// Drain a whole wave, freeing its room.
    Wave,
}

/// Weighted decode of a raw draw: pushes dominate (3:2:2:1) so rings
/// actually fill up. Weights run past `capacity` so that chunks heavier
/// than the whole ring occur.
fn decode((kind, weight): (u8, usize)) -> Step {
    match kind {
        0..=2 => Step::Push(weight),
        3..=4 => Step::Pop,
        5..=6 => Step::Release,
        _ => Step::Wave,
    }
}

proptest! {
    #[test]
    fn interleavings_uphold_capacity_fifo_and_conservation(
        capacity in 1usize..32,
        raw_steps in proptest::collection::vec(0u8..6, 1..200),
    ) {
        let ring: BoundedRing<u64> = BoundedRing::new(capacity);
        let mut next = 0u64;
        let mut popped: Vec<u64> = Vec::new();
        let mut wave = Vec::new();

        for raw in raw_steps {
            match raw {
                // `try_push_weighted` so a full ring never blocks the script.
                0..=2 => {
                    if ring.try_push_weighted(next, 1).is_ok() {
                        next += 1;
                    }
                }
                3..=4 => {
                    if !ring.is_empty() {
                        let (item, weight) = ring.pop().expect("an item is queued");
                        prop_assert_eq!(weight, 1);
                        ring.release(weight, None);
                        popped.push(item);
                    }
                }
                _ => {
                    if !ring.is_empty() {
                        prop_assert!(ring.pop_wave(&mut wave));
                        popped.append(&mut wave);
                    }
                }
            }
            prop_assert!(ring.len() <= capacity, "len {} > capacity {}", ring.len(), capacity);
            prop_assert_eq!(ring.taken(), ring.len());
        }

        // Close and drain the remainder the way a shard shutdown does.
        ring.close();
        while ring.pop_wave(&mut wave) {
            popped.append(&mut wave);
        }

        // FIFO: popped is exactly 0..pushed in order.
        prop_assert_eq!(popped.len() as u64, next, "conservation");
        for (expected, item) in popped.iter().enumerate() {
            prop_assert_eq!(*item, expected as u64, "FIFO order");
        }
    }

    #[test]
    fn weighted_chunks_uphold_room_fifo_recycling_and_drain(
        capacity in 1usize..24,
        raw_steps in proptest::collection::vec((0u8..8, 1usize..40), 1..240),
    ) {
        let ring: BoundedRing<u64> = BoundedRing::new(capacity);
        // The model: queued and held chunks as (sequence, weight), and the
        // released buffers a push hands back, last released first.
        let mut queued: VecDeque<(u64, usize)> = VecDeque::new();
        let mut held: VecDeque<(u64, usize)> = VecDeque::new();
        let mut spares: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let mut taken_out: Vec<u64> = Vec::new();
        let mut wave = Vec::new();

        for step in raw_steps.into_iter().map(decode) {
            let room: usize = queued.iter().chain(&held).map(|&(_, w)| w).sum();
            match step {
                Step::Push(weight) => {
                    let fits = room == 0 || room + weight <= capacity;
                    match ring.try_push_weighted(next, weight) {
                        Ok(spare) => {
                            prop_assert!(fits, "{weight} entered with {room} of {capacity} taken");
                            prop_assert_eq!(spare, spares.pop(), "the last released buffer comes back");
                            queued.push_back((next, weight));
                            next += 1;
                        }
                        Err(item) => {
                            prop_assert!(!fits, "{weight} refused with {room} of {capacity} taken");
                            prop_assert_eq!(item, next);
                        }
                    }
                }
                Step::Pop => {
                    if !ring.is_empty() {
                        let chunk = ring.pop().expect("a chunk is queued");
                        prop_assert_eq!(Some(chunk), queued.pop_front(), "FIFO order");
                        taken_out.push(chunk.0);
                        held.push_back(chunk);
                    }
                }
                Step::Release => {
                    if let Some((sequence, weight)) = held.pop_front() {
                        ring.release(weight, Some(sequence));
                        spares.push(sequence);
                    }
                }
                Step::Wave => {
                    if !ring.is_empty() {
                        prop_assert!(ring.pop_wave(&mut wave));
                        let expected: Vec<u64> = queued.drain(..).map(|(s, _)| s).collect();
                        prop_assert_eq!(&wave, &expected, "FIFO order");
                        taken_out.append(&mut wave);
                    }
                }
            }
            let room: usize = queued.iter().chain(&held).map(|&(_, w)| w).sum();
            prop_assert_eq!(ring.taken(), room, "queued and held chunks take the room");
            prop_assert_eq!(ring.len(), queued.len());
            let lone = queued.len() + held.len() == 1;
            prop_assert!(
                room <= capacity || lone,
                "{room} of {capacity} taken by {} chunks",
                queued.len() + held.len()
            );
        }

        // A closed ring refuses pushes, drains in order, then ends.
        ring.close();
        prop_assert_eq!(ring.try_push_weighted(next, 1), Err(next));
        while let Some(chunk) = ring.pop() {
            prop_assert_eq!(Some(chunk), queued.pop_front(), "FIFO order");
            taken_out.push(chunk.0);
        }
        prop_assert!(queued.is_empty(), "a closed ring drains");
        prop_assert!(!ring.pop_wave(&mut wave), "closed and dry terminates");
        prop_assert_eq!(taken_out, (0..next).collect::<Vec<_>>(), "conservation");
    }
}

#[test]
fn threaded_producers_conserve_and_order_per_producer() {
    // Two producers × 500 items through a capacity-4 ring: pushes must
    // block (not drop), the consumer must see every item exactly once, and
    // each producer's items must arrive in that producer's order.
    const PER_PRODUCER: u64 = 500;
    let ring: Arc<BoundedRing<(u8, u64)>> = Arc::new(BoundedRing::new(4));

    let mut producers = Vec::new();
    for who in 0u8..2 {
        let ring = Arc::clone(&ring);
        producers.push(std::thread::spawn(move || {
            for sequence in 0..PER_PRODUCER {
                ring.push((who, sequence))
                    .expect("ring open while producing");
            }
        }));
    }

    let consumer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut wave = Vec::new();
            while ring.pop_wave(&mut wave) {
                seen.append(&mut wave);
            }
            seen
        })
    };

    for producer in producers {
        producer.join().unwrap();
    }
    ring.close();
    let seen = consumer.join().unwrap();

    assert_eq!(seen.len() as u64, 2 * PER_PRODUCER, "conservation");
    let mut next = [0u64; 2];
    for (who, sequence) in seen {
        assert_eq!(
            sequence, next[who as usize],
            "per-producer FIFO for producer {who}"
        );
        next[who as usize] += 1;
    }
    assert_eq!(next, [PER_PRODUCER; 2]);
}

#[test]
fn threaded_chunks_hold_room_until_released_and_buffers_circulate() {
    // One producer pushes 400 chunks of 1–11 items through a ring of 8, so
    // some chunks are heavier than the ring; the consumer holds each chunk
    // while it "mediates" it, checks the room bound, then releases it with
    // its buffer. The producer refills the buffers it gets back, then
    // closes the ring, which the consumer drains before it ends.
    const CHUNKS: u64 = 400;
    const CAPACITY: usize = 8;
    let ring: Arc<BoundedRing<Vec<u64>>> = Arc::new(BoundedRing::new(CAPACITY));

    let producer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut buffer = Vec::new();
            let mut allocated = 0;
            let mut next = 0u64;
            for chunk in 0..CHUNKS {
                let weight = 1 + (chunk * 7 % 11) as usize;
                allocated += usize::from(buffer.capacity() == 0);
                buffer.extend(next..next + weight as u64);
                next += weight as u64;
                let spare = ring
                    .push_weighted(std::mem::take(&mut buffer), weight)
                    .expect("ring open while producing");
                buffer = spare.unwrap_or_default();
            }
            ring.close();
            (next, allocated)
        })
    };

    let mut seen = Vec::new();
    while let Some((mut chunk, weight)) = ring.pop() {
        assert_eq!(chunk.len(), weight);
        let taken = ring.taken();
        assert!(
            taken <= CAPACITY || taken == weight,
            "{taken} taken while holding a chunk of {weight}"
        );
        seen.append(&mut chunk);
        ring.release(weight, Some(chunk));
    }
    let (pushed, allocated) = producer.join().unwrap();
    assert_eq!(
        seen,
        (0..pushed).collect::<Vec<_>>(),
        "FIFO and conservation"
    );
    assert!(
        allocated < CHUNKS as usize / 4,
        "{allocated} fresh buffers for {CHUNKS} chunks: released buffers must come back"
    );
}

#[test]
fn a_producer_blocked_for_room_wakes_when_a_held_chunk_is_released() {
    let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(8));
    ring.push_weighted(1, 6).unwrap();
    assert_eq!(ring.pop(), Some((1, 6)));
    let producer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || ring.push_weighted(2, 6))
    };
    // The held chunk's room keeps the producer blocked…
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(!producer.is_finished(), "6 + 6 > 8 must block");
    assert!(ring.is_empty());
    // …until the consumer releases it.
    ring.release(6, Some(7));
    assert_eq!(producer.join().unwrap(), Ok(Some(7)));
    assert_eq!(ring.pop(), Some((2, 6)));
}
