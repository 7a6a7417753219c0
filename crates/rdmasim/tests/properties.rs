//! Property test: a registered region keeps `Bytes` handles in a segment
//! map, and through the public API it is indistinguishable from the
//! zero-initialised flat buffer it models — same bytes after any sequence
//! of local and one-sided writes, same `OutOfBounds` for the same access.

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use proptest::prelude::*;
use rdmasim::{QpConfig, RdmaError, RdmaStack};
use simkit::Sim;

/// What a flat `len`-byte buffer answers to an access of `n` bytes at
/// `offset`.
fn bounds(len: u64, offset: u64, n: u64) -> Result<(), RdmaError> {
    let end = offset + n;
    if end > len {
        return Err(RdmaError::OutOfBounds { end, len });
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ops are `(verb, aligned, slot, fine, n, fill)`: half the offsets
    /// sit on a 64-byte grid (so writes of different lengths keep landing
    /// on the same offset, the pooled-buffer pattern), the rest anywhere
    /// up to past the end; lengths include 0 and spans wider than any one
    /// earlier write.
    #[test]
    fn region_matches_a_flat_zeroed_buffer(
        len in 0u64..640,
        ops in proptest::collection::vec(
            (0u8..5, 0u8..2, 0u64..11, 0u64..700, 0u64..300, any::<u8>()),
            1..60,
        ),
    ) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
        let stack = RdmaStack::new(fabric);
        sim.block_on(async move {
            let mr = stack.register(NodeId(1), len).await;
            let remote = mr.remote();
            let (qp, _peer) = stack
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let mut flat = vec![0u8; len as usize];
            for (verb, aligned, slot, fine, n, fill) in ops {
                let offset = if aligned == 1 { slot * 64 } else { fine };
                let expect = bounds(len, offset, n);
                let span = offset as usize..(offset + n) as usize;
                if verb < 3 {
                    let data: Vec<u8> = (0..n).map(|i| fill.wrapping_add(i as u8)).collect();
                    let got = match verb {
                        0 => mr.write_local(offset, &data),
                        1 => mr.put_local(offset, Bytes::from(data.clone())),
                        _ => qp.write(&remote, offset, Bytes::from(data.clone())).await,
                    };
                    prop_assert_eq!(got, expect, "verb {} at {}+{} of {}", verb, offset, n, len);
                    if expect.is_ok() {
                        flat[span].copy_from_slice(&data);
                    }
                } else {
                    let got = match verb {
                        3 => mr.read_local(offset, n),
                        _ => qp.read(&remote, offset, n).await,
                    };
                    let want = expect.map(|()| Bytes::copy_from_slice(&flat[span]));
                    prop_assert_eq!(got, want, "verb {} at {}+{} of {}", verb, offset, n, len);
                }
            }
            prop_assert_eq!(&mr.read_local(0, len).unwrap()[..], &flat[..]);
        });
        sim.reset();
    }
}
