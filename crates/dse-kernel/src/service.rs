//! Engine-neutral execution of global-memory request messages.
//!
//! The paper's kernel has one job on the serving side: take a decoded
//! request, touch the home partition of global memory, and produce the
//! response message. That data plane is identical whether the kernel is a
//! simulated process (charging virtual CPU time, maintaining the coherence
//! directory) or a live thread answering sockets — so it lives here, once.
//! Engine-specific accounting (cost charging, cache installs, invalidation
//! rounds, metrics) hangs off the [`GmServiceHooks`] callbacks, which fire
//! *after* the store operation they describe, in request order — except
//! [`GmServiceHooks::before_read`], which fires just before each read.

use dse_msg::{GmOp, Message, RegionId};

use crate::gmem::GlobalStore;

/// Engine-specific side effects of serving a GM request.
pub trait GmServiceHooks {
    /// A read of `len` bytes at (`region`, `offset`) is about to touch the
    /// store. A directory lease granted here is in place before the bytes
    /// are read, so a concurrent own-node write either lands before the
    /// read or finds the requester among the holders it invalidates.
    /// Default: nothing to do.
    fn before_read(&mut self, region: RegionId, offset: u64, len: usize) {
        let _ = (region, offset, len);
    }
    /// A read of `data.len()` bytes at (`region`, `offset`) was executed.
    fn read_executed(&mut self, region: RegionId, offset: u64, data: &[u8]);
    /// A write of `len` bytes at (`region`, `offset`) was executed.
    fn write_executed(&mut self, region: RegionId, offset: u64, len: usize);
    /// A fetch-add on the cell at (`region`, `offset`) was executed.
    fn fetch_add_executed(&mut self, region: RegionId, offset: u64);
    /// A `GmInvalidate` over (`region`, `offset`, `len`) arrived: this node
    /// must drop its cached replicas of the range before the ack goes back.
    /// Default: nothing to drop (engines without a replica cache).
    fn invalidated(&mut self, region: RegionId, offset: u64, len: usize) {
        let _ = (region, offset, len);
    }
}

/// Hooks that do nothing; for callers with no engine accounting.
pub struct NoHooks;

impl GmServiceHooks for NoHooks {
    fn read_executed(&mut self, _: RegionId, _: u64, _: &[u8]) {}
    fn write_executed(&mut self, _: RegionId, _: u64, _: usize) {}
    fn fetch_add_executed(&mut self, _: RegionId, _: u64) {}
}

/// Outcome of offering a message to the GM service.
pub enum Served {
    /// The message was a GM request; here is the response to send back.
    Response(Message),
    /// Not a GM request — handed back untouched for the caller's dispatch.
    NotGm(Message),
}

/// Execute one GM request against `store`. Batch operations run in issue
/// order, so a read following a coalesced write inside the same batch
/// observes the written data. Panics on a malformed request (out-of-range
/// access): the requester and home disagree about the address space, which
/// is unrecoverable.
pub fn serve_gm(store: &GlobalStore, msg: Message, hooks: &mut impl GmServiceHooks) -> Served {
    match msg {
        Message::GmReadReq {
            req,
            region,
            offset,
            len,
        } => {
            hooks.before_read(region, offset, len as usize);
            let data = store
                .read(region, offset, len as usize)
                .unwrap_or_else(|e| panic!("gm service: remote read failed: {e}"));
            hooks.read_executed(region, offset, &data);
            Served::Response(Message::GmReadResp {
                req,
                data: data.into(),
            })
        }
        Message::GmWriteReq {
            req,
            region,
            offset,
            data,
        } => {
            store
                .write(region, offset, &data)
                .unwrap_or_else(|e| panic!("gm service: remote write failed: {e}"));
            hooks.write_executed(region, offset, data.len());
            Served::Response(Message::GmWriteAck { req })
        }
        Message::GmFetchAddReq {
            req,
            region,
            offset,
            delta,
        } => {
            let prev = store
                .fetch_add(region, offset, delta)
                .unwrap_or_else(|e| panic!("gm service: remote fetch-add failed: {e}"));
            hooks.fetch_add_executed(region, offset);
            Served::Response(Message::GmFetchAddResp { req, prev })
        }
        Message::GmBatchReq { req, ops } => {
            let mut reads = Vec::new();
            for op in ops {
                match op {
                    GmOp::Read {
                        region,
                        offset,
                        len,
                    } => {
                        hooks.before_read(region, offset, len as usize);
                        let data = store
                            .read(region, offset, len as usize)
                            .unwrap_or_else(|e| panic!("gm service: batched read failed: {e}"));
                        hooks.read_executed(region, offset, &data);
                        reads.push(data.into());
                    }
                    GmOp::Write {
                        region,
                        offset,
                        data,
                    } => {
                        store
                            .write(region, offset, &data)
                            .unwrap_or_else(|e| panic!("gm service: batched write failed: {e}"));
                        hooks.write_executed(region, offset, data.len());
                    }
                }
            }
            Served::Response(Message::GmBatchResp { req, reads })
        }
        Message::GmInvalidate {
            req,
            region,
            offset,
            len,
        } => {
            hooks.invalidated(region, offset, len as usize);
            Served::Response(Message::GmInvalidateAck { req })
        }
        other => Served::NotGm(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_msg::ReqId;

    #[derive(Default)]
    struct CountingHooks {
        reads: usize,
        writes: usize,
        fadds: usize,
        invals: Vec<(RegionId, u64, usize)>,
    }

    impl GmServiceHooks for CountingHooks {
        fn read_executed(&mut self, _: RegionId, _: u64, _: &[u8]) {
            self.reads += 1;
        }
        fn write_executed(&mut self, _: RegionId, _: u64, _: usize) {
            self.writes += 1;
        }
        fn fetch_add_executed(&mut self, _: RegionId, _: u64) {
            self.fadds += 1;
        }
        fn invalidated(&mut self, region: RegionId, offset: u64, len: usize) {
            self.invals.push((region, offset, len));
        }
    }

    fn store_with_region(bytes: usize) -> (GlobalStore, RegionId) {
        let store = GlobalStore::new(1);
        let r = store.alloc(bytes, crate::gmem::Distribution::Blocked);
        (store, r)
    }

    #[test]
    fn read_write_roundtrip_through_service() {
        let (store, r) = store_with_region(64);
        let mut hooks = CountingHooks::default();
        let w = Message::GmWriteReq {
            req: ReqId(1),
            region: r,
            offset: 8,
            data: vec![5u8; 16].into(),
        };
        match serve_gm(&store, w, &mut hooks) {
            Served::Response(Message::GmWriteAck { req: ReqId(1) }) => {}
            _ => panic!("expected write ack"),
        }
        let rd = Message::GmReadReq {
            req: ReqId(2),
            region: r,
            offset: 8,
            len: 16,
        };
        match serve_gm(&store, rd, &mut hooks) {
            Served::Response(Message::GmReadResp {
                req: ReqId(2),
                data,
            }) => {
                assert_eq!(data, vec![5u8; 16]);
            }
            _ => panic!("expected read resp"),
        }
        assert_eq!((hooks.reads, hooks.writes), (1, 1));
    }

    #[test]
    fn batch_executes_in_issue_order() {
        let (store, r) = store_with_region(32);
        let mut hooks = CountingHooks::default();
        let batch = Message::GmBatchReq {
            req: ReqId(3),
            ops: vec![
                GmOp::Write {
                    region: r,
                    offset: 0,
                    data: vec![9u8; 8].into(),
                },
                GmOp::Read {
                    region: r,
                    offset: 0,
                    len: 8,
                },
            ],
        };
        match serve_gm(&store, batch, &mut hooks) {
            Served::Response(Message::GmBatchResp {
                req: ReqId(3),
                reads,
            }) => {
                assert_eq!(reads, vec![vec![9u8; 8]]);
            }
            _ => panic!("expected batch resp"),
        }
        assert_eq!((hooks.reads, hooks.writes, hooks.fadds), (1, 1, 0));
    }

    #[test]
    fn invalidate_fires_hook_and_acks() {
        let (store, r) = store_with_region(64);
        let mut hooks = CountingHooks::default();
        let inv = Message::GmInvalidate {
            req: ReqId(9),
            region: r,
            offset: 16,
            len: 32,
        };
        match serve_gm(&store, inv, &mut hooks) {
            Served::Response(Message::GmInvalidateAck { req: ReqId(9) }) => {}
            _ => panic!("expected invalidate ack"),
        }
        assert_eq!(hooks.invals, vec![(r, 16, 32)]);
        // The default hook implementation keeps engines without a cache
        // compiling and serving acks.
        let inv = Message::GmInvalidate {
            req: ReqId(10),
            region: r,
            offset: 0,
            len: 8,
        };
        assert!(matches!(
            serve_gm(&store, inv, &mut NoHooks),
            Served::Response(Message::GmInvalidateAck { req: ReqId(10) })
        ));
    }

    /// Stands in for an own-node write racing the serve: it lands in the
    /// store from `before_read`.
    struct WriteBeforeRead<'a> {
        store: &'a GlobalStore,
        pattern: Vec<u8>,
    }

    impl GmServiceHooks for WriteBeforeRead<'_> {
        fn before_read(&mut self, region: RegionId, offset: u64, len: usize) {
            assert_eq!(len, self.pattern.len());
            self.store.write(region, offset, &self.pattern).unwrap();
        }
        fn read_executed(&mut self, _: RegionId, _: u64, _: &[u8]) {}
        fn write_executed(&mut self, _: RegionId, _: u64, _: usize) {}
        fn fetch_add_executed(&mut self, _: RegionId, _: u64) {}
    }

    #[test]
    fn before_read_runs_before_the_store_read() {
        let (store, r) = store_with_region(64);
        let pattern: Vec<u8> = (1..=16).collect();
        let mut hooks = WriteBeforeRead {
            store: &store,
            pattern: pattern.clone(),
        };
        let rd = Message::GmReadReq {
            req: ReqId(4),
            region: r,
            offset: 8,
            len: 16,
        };
        match serve_gm(&store, rd, &mut hooks) {
            Served::Response(Message::GmReadResp { data, .. }) => assert_eq!(data, pattern),
            _ => panic!("expected read resp"),
        }
        let batch = Message::GmBatchReq {
            req: ReqId(5),
            ops: vec![GmOp::Read {
                region: r,
                offset: 32,
                len: 16,
            }],
        };
        hooks.pattern = (100..116).collect();
        match serve_gm(&store, batch, &mut hooks) {
            Served::Response(Message::GmBatchResp { reads, .. }) => {
                assert_eq!(reads, vec![hooks.pattern.clone()]);
            }
            _ => panic!("expected batch resp"),
        }
    }

    #[test]
    fn non_gm_messages_are_handed_back() {
        let (store, _) = store_with_region(8);
        match serve_gm(&store, Message::KernelShutdown, &mut NoHooks) {
            Served::NotGm(Message::KernelShutdown) => {}
            _ => panic!("expected message back"),
        }
    }
}
