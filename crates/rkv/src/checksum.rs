//! CRC32C (Castagnoli) — the end-to-end chunk digest.
//!
//! The kernel is [`simkit::crc32c`], shared with Lustre's commit check. It
//! uses the CPU's CRC32C instruction where the running CPU has one, and
//! table-driven slice-by-8 elsewhere; the digests are the same on both
//! paths. This module re-exports
//! it under the names the KV layer, the wire layer, the burst-buffer core
//! and test code have always used.
//!
//! The burst buffer computes `crc32c_pair(key, data)` when a chunk is
//! sealed and carries it in the KV value's `flags` word and the file's
//! chunk-CRC manifest; covering the *key* as well as the payload means a
//! value that lands under the wrong key (e.g. a corrupted key byte in
//! transit) also fails verification instead of reading back "cleanly".
//! Every hop that holds the chunk as a `Bytes` view digests it with
//! `crc32c_pair_bytes`, which derives the digest of a view of at least
//! 4 KiB from registers over the prefixes of the allocation it shares,
//! kept in that allocation, reading only what they do not cover (see
//! [`simkit::crc32c::crc32c_bytes`]).

pub use simkit::crc32c::{crc32c, crc32c_pair, crc32c_pair_bytes, Crc32c};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_the_rfc3720_ones() {
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c_pair(b"1234", b"56789"), 0xe306_9283);
        let mut c = Crc32c::new();
        c.update(&[0u8; 32]);
        assert_eq!(c.finalize(), 0x8a91_36aa);
    }

    #[test]
    fn key_coverage_distinguishes_keys() {
        let data = vec![42u8; 1024];
        assert_ne!(crc32c_pair(b"f1:0", &data), crc32c_pair(b"f1:1", &data));
    }
}
