//! `GmClient` driven directly, with no engine: staging and coalescing,
//! per-home batching, the window, handle redemption, and completion
//! matching.

use dse_kernel::client::{Effect, Flush, GmClient, Issued, Request, Step};
use dse_kernel::{CacheStore, Distribution, GlobalStore, CACHE_BLOCK};
use dse_msg::{GmOp, Message, NodeId, RegionId, ReqId};

const ME: NodeId = NodeId(0);

/// A store of `nodes` PEs with one 4 KiB region homed on each of them.
fn store(nodes: usize) -> (GlobalStore, Vec<RegionId>) {
    let store = GlobalStore::new(nodes);
    let regions = (0..nodes)
        .map(|n| store.alloc(4096, Distribution::OnNode(NodeId(n as u16))))
        .collect();
    (store, regions)
}

/// Step an issue to completion without flushing (a non-blocking issue).
fn issue(
    c: &mut GmClient,
    store: &GlobalStore,
    region: RegionId,
    offset: u64,
    len: usize,
    write: Option<&[u8]>,
) -> Issued {
    let mut is = c.issue(store, None, region, offset, len, write, 0);
    loop {
        if let Step::Done(issued) = c.step(&mut is, store, None) {
            return issued;
        }
    }
}

fn read(c: &mut GmClient, store: &GlobalStore, region: RegionId, off: u64, len: usize) -> u64 {
    match issue(c, store, region, off, len, None) {
        Issued::Queued(id) => id,
        Issued::Ready(_) => panic!("a remote read is queued"),
    }
}

fn write(c: &mut GmClient, store: &GlobalStore, region: RegionId, off: u64, data: &[u8]) -> u64 {
    match issue(c, store, region, off, data.len(), Some(data)) {
        Issued::Queued(id) => id,
        Issued::Ready(_) => panic!("a remote write is queued"),
    }
}

fn send(c: &mut GmClient) -> Request {
    match c.poll_flush(0) {
        Flush::Send(r) => r,
        other => panic!("expected a request, got {other:?}"),
    }
}

fn complete(c: &mut GmClient, msg: Message) -> Result<ReqId, ReqId> {
    c.complete(msg, |_| {})
}

#[test]
fn touching_and_overlapping_reads_merge() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 8);
    let a = read(&mut c, &store, r[1], 0, 8);
    let b = read(&mut c, &store, r[1], 8, 8); // touches a
    let d = read(&mut c, &store, r[1], 4, 8); // overlaps both
    let req = send(&mut c);
    assert!(matches!(c.poll_flush(0), Flush::Done));
    match req.msg {
        Message::GmReadReq { offset, len, .. } => assert_eq!((offset, len), (0, 16)),
        ref other => panic!("expected one plain read, got {other:?}"),
    }
    assert_eq!(req.home, NodeId(1));
    assert_eq!(c.take_counters().0.gm_coalesced, 2);
    let data: Vec<u8> = (0..16).collect();
    let resp = Message::GmReadResp {
        req: req.req,
        data: data.clone().into(),
    };
    assert_eq!(complete(&mut c, resp), Ok(req.req));
    assert_eq!(c.redeem(a), Some(Some(data[0..8].to_vec())));
    assert_eq!(c.redeem(b), Some(Some(data[8..16].to_vec())));
    assert_eq!(c.redeem(d), Some(Some(data[4..12].to_vec())));
}

#[test]
fn overlapping_writes_merge_and_the_later_bytes_win() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 8);
    let a = write(&mut c, &store, r[1], 0, &[1; 8]);
    let b = write(&mut c, &store, r[1], 4, &[2; 8]);
    let req = send(&mut c);
    match &req.msg {
        Message::GmWriteReq { offset, data, .. } => {
            assert_eq!(*offset, 0);
            assert_eq!(data, &[1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2][..]);
        }
        other => panic!("expected one plain write, got {other:?}"),
    }
    assert_eq!(req.bytes, 12);
    assert_eq!(
        complete(&mut c, Message::GmWriteAck { req: req.req }),
        Ok(req.req)
    );
    assert_eq!(c.redeem(a), Some(None));
    assert_eq!(c.redeem(b), Some(None));
}

#[test]
fn batches_group_by_home_in_first_appearance_order() {
    let (store, r) = store(3);
    let mut c = GmClient::new(ME, 8);
    read(&mut c, &store, r[1], 0, 8);
    write(&mut c, &store, r[2], 0, &[7; 8]);
    read(&mut c, &store, r[1], 100, 8); // same home, not touching
    write(&mut c, &store, r[2], 100, &[9; 8]);
    let first = send(&mut c);
    let second = send(&mut c);
    assert!(matches!(c.poll_flush(0), Flush::Done));
    assert_eq!((first.home, second.home), (NodeId(1), NodeId(2)));
    match first.msg {
        Message::GmBatchReq { ops, .. } => {
            let offsets: Vec<u64> = ops
                .iter()
                .map(|op| match op {
                    GmOp::Read { offset, .. } => *offset,
                    GmOp::Write { .. } => panic!("home 1 only has reads"),
                })
                .collect();
            assert_eq!(offsets, vec![0, 100]);
        }
        other => panic!("expected a batch, got {other:?}"),
    }
    match second.msg {
        Message::GmBatchReq { ops, .. } => {
            let firsts: Vec<u8> = ops
                .iter()
                .map(|op| match op {
                    GmOp::Write { data, .. } => data[0],
                    GmOp::Read { .. } => panic!("home 2 only has writes"),
                })
                .collect();
            assert_eq!(firsts, vec![7, 9]);
        }
        other => panic!("expected a batch, got {other:?}"),
    }
}

#[test]
fn window_reports_full_at_gm_window() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 2);
    read(&mut c, &store, r[1], 0, 8);
    let first = send(&mut c);
    read(&mut c, &store, r[1], 100, 8);
    send(&mut c);
    assert!(c.window_full());
    read(&mut c, &store, r[1], 200, 8);
    assert!(matches!(c.poll_flush(0), Flush::WindowFull));
    let resp = Message::GmReadResp {
        req: first.req,
        data: vec![0; 8].into(),
    };
    complete(&mut c, resp).unwrap();
    assert!(!c.window_full());
    send(&mut c);
    assert_eq!(c.take_counters().1, 2, "in-flight peak equals the window");
}

#[test]
#[should_panic(expected = "stale handle")]
fn discarded_handle_panics_as_stale() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 8);
    let h = read(&mut c, &store, r[1], 0, 8);
    let req = send(&mut c);
    let resp = Message::GmReadResp {
        req: req.req,
        data: vec![0; 8].into(),
    };
    complete(&mut c, resp).unwrap();
    c.discard_completed();
    c.redeem(h);
}

#[test]
#[should_panic(expected = "stale handle")]
fn redeemed_handle_panics_as_stale() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 8);
    let h = write(&mut c, &store, r[1], 0, &[1; 8]);
    let req = send(&mut c);
    complete(&mut c, Message::GmWriteAck { req: req.req }).unwrap();
    assert_eq!(c.redeem(h), Some(None));
    c.redeem(h);
}

#[test]
#[should_panic(expected = "does not match")]
fn wrong_kind_completion_panics() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 8);
    read(&mut c, &store, r[1], 0, 8);
    let req = send(&mut c);
    let _ = complete(&mut c, Message::GmWriteAck { req: req.req });
}

#[test]
fn unknown_id_is_reported() {
    let (store, r) = store(2);
    let mut c = GmClient::new(ME, 8);
    let h = write(&mut c, &store, r[1], 0, &[1; 8]);
    let req = send(&mut c);
    let stray = ReqId(req.req.0 + 1000);
    assert_eq!(
        complete(&mut c, Message::GmWriteAck { req: stray }),
        Err(stray)
    );
    // The real ack still completes the handle; a duplicate of it is
    // reported like any other unknown id.
    let ack = Message::GmWriteAck { req: req.req };
    assert_eq!(complete(&mut c, ack.clone()), Ok(req.req));
    assert_eq!(complete(&mut c, ack), Err(req.req));
    assert_eq!(c.redeem(h), Some(None));
}

#[test]
fn cached_reads_hit_replicas_and_install_missed_blocks() {
    let (store, r) = store(2);
    let cache = CacheStore::new(2);
    let block: Vec<u8> = (0..CACHE_BLOCK).map(|i| i as u8).collect();
    cache.install(ME, r[1], 0, block.clone());
    let mut c = GmClient::new(ME, 8);

    // A sub-block read inside a cached block is a hit, born ready.
    let mut is = c.issue(&store, Some(&cache), r[1], 10, 4, None, 0);
    assert!(matches!(
        c.step(&mut is, &store, Some(&cache)),
        Step::Hit(4)
    ));
    match c.step(&mut is, &store, Some(&cache)) {
        Step::Done(Issued::Ready(Some(bytes))) => assert_eq!(bytes, block[10..14]),
        other => panic!("expected a ready read, got {other:?}"),
    }

    // Blocks 0..3: block 0 hits, blocks 1 and 2 miss and merge into one
    // fetch that installs both.
    let len = 3 * CACHE_BLOCK;
    let mut is = c.issue(&store, Some(&cache), r[1], 0, len, None, 7);
    assert!(matches!(
        c.step(&mut is, &store, Some(&cache)),
        Step::Hit(CACHE_BLOCK)
    ));
    assert!(matches!(
        c.step(&mut is, &store, Some(&cache)),
        Step::Staged
    ));
    let Step::Done(Issued::Queued(h)) = c.step(&mut is, &store, Some(&cache)) else {
        panic!("a read with misses is queued");
    };
    let req = send(&mut c);
    match req.msg {
        Message::GmReadReq { offset, len, .. } => {
            assert_eq!(
                (offset, len as usize),
                (CACHE_BLOCK as u64, 2 * CACHE_BLOCK)
            )
        }
        ref other => panic!("expected one plain read, got {other:?}"),
    }
    let fetched = vec![5u8; 2 * CACHE_BLOCK];
    let resp = Message::GmReadResp {
        req: req.req,
        data: fetched.clone().into(),
    };
    let mut installed = Vec::new();
    let mut finished = Vec::new();
    c.complete(resp, |e| match e {
        Effect::Install(i) => installed.extend(i.blocks().map(|(b, d)| (b, d.len()))),
        Effect::Finished { is_read, issued_at } => finished.push((is_read, issued_at)),
    })
    .unwrap();
    assert_eq!(installed, vec![(1, CACHE_BLOCK), (2, CACHE_BLOCK)]);
    assert_eq!(finished, vec![(true, 7)]);
    let bytes = c.redeem(h).unwrap().unwrap();
    assert_eq!(bytes[..CACHE_BLOCK], block[..]);
    assert_eq!(bytes[CACHE_BLOCK..], fetched[..]);
    let (counts, _) = c.take_counters();
    assert_eq!((counts.cache_hits, counts.cache_misses), (2, 2));
}
