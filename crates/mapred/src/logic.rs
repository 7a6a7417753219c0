//! Job logics: how map turns split bytes into per-partition outputs and
//! how reduce folds shuffled pieces into final output.
//!
//! Two families:
//! A split arrives as the [`Gather`] its reader returned — views of the
//! chunks the filesystem holds — and map outputs and reduce outputs stay
//! gathers: the output writer gets one append per reduce output, whatever
//! its elements, so how the simulator holds the bytes never changes how
//! the modeled writer is driven.
//!
//! Two families:
//! * **real** logics (word count, grep, record sort) process actual byte
//!   content — used for correctness tests and small runs; they join their
//!   input with [`Gather::concat`] before reading it;
//! * **synthetic** logics move real bytes with zero-copy slicing but skip
//!   content inspection — used for multi-gigabyte benchmark runs where CPU
//!   cost is charged to the virtual clock, not the host. Nothing they
//!   move is copied: a split's views become the pieces' views become the
//!   output writer's appends.

use bytes::{BufMut, Bytes, BytesMut};
use simkit::Gather;
use std::collections::BTreeMap;

/// A MapReduce job's data transformation.
pub trait JobLogic {
    /// Turn one split's bytes into per-partition map outputs.
    fn map(&self, split_index: usize, data: Gather, partitions: u32) -> Vec<(u32, Gather)>;

    /// Fold one partition's shuffled pieces (in map order) into output
    /// chunks, appended to the partition's output file in order.
    fn reduce(&self, partition: u32, pieces: Vec<Gather>) -> Vec<Gather>;

    /// Map CPU throughput (bytes/s of input processed).
    fn map_cpu_rate(&self) -> f64 {
        250e6
    }

    /// Reduce CPU throughput (bytes/s of shuffled data processed).
    fn reduce_cpu_rate(&self) -> f64 {
        250e6
    }
}

/// Pass input through unchanged to a single partition (a distributed copy).
pub struct IdentityLogic;

impl JobLogic for IdentityLogic {
    fn map(&self, _split: usize, data: Gather, _partitions: u32) -> Vec<(u32, Gather)> {
        vec![(0, data)]
    }
    fn reduce(&self, _partition: u32, pieces: Vec<Gather>) -> Vec<Gather> {
        pieces
    }
}

/// Sort/shuffle-shaped synthetic logic: every split is sliced (zero-copy)
/// into `partitions` pieces scaled by `output_ratio`, and reduce passes the
/// gathered pieces through. Models the data volumes of a sort (`ratio =
/// 1.0`) or an aggregation (`ratio < 1`) without touching content.
pub struct SyntheticShuffleLogic {
    /// Map output bytes per input byte.
    pub output_ratio: f64,
    /// Map CPU rate override.
    pub map_rate: f64,
    /// Reduce CPU rate override.
    pub reduce_rate: f64,
}

impl SyntheticShuffleLogic {
    /// Sort-shaped: all bytes shuffle (ratio 1.0) at typical sort CPU rates.
    pub fn sort() -> Self {
        SyntheticShuffleLogic {
            output_ratio: 1.0,
            map_rate: 400e6,
            reduce_rate: 300e6,
        }
    }

    /// Aggregation-shaped: `ratio` of the input survives the map.
    pub fn aggregation(ratio: f64) -> Self {
        SyntheticShuffleLogic {
            output_ratio: ratio,
            map_rate: 200e6,
            reduce_rate: 250e6,
        }
    }
}

impl JobLogic for SyntheticShuffleLogic {
    fn map(&self, _split: usize, data: Gather, partitions: u32) -> Vec<(u32, Gather)> {
        let out_len = (data.len() as f64 * self.output_ratio) as usize;
        let out = data.slice(..out_len.min(data.len()));
        let n = partitions.max(1) as usize;
        let per = out.len() / n;
        let mut pieces = Vec::with_capacity(n);
        for p in 0..n {
            let start = p * per;
            let end = if p == n - 1 { out.len() } else { (p + 1) * per };
            if end > start {
                pieces.push((p as u32, out.slice(start..end)));
            }
        }
        pieces
    }
    fn reduce(&self, _partition: u32, pieces: Vec<Gather>) -> Vec<Gather> {
        pieces
    }
    fn map_cpu_rate(&self) -> f64 {
        self.map_rate
    }
    fn reduce_cpu_rate(&self) -> f64 {
        self.reduce_rate
    }
}

/// Key width of a [`RecordSortLogic`] record.
pub const SORT_KEY_LEN: usize = 10;
/// Record width of a [`RecordSortLogic`] record (TeraSort-style).
pub const SORT_RECORD_LEN: usize = 100;

/// Real record sort over TeraSort-style 100-byte records with 10-byte keys:
/// map range-partitions by first key byte, reduce merge-sorts.
pub struct RecordSortLogic;

impl JobLogic for RecordSortLogic {
    fn map(&self, _split: usize, data: Gather, partitions: u32) -> Vec<(u32, Gather)> {
        let data = data.concat();
        let n = partitions.max(1);
        let mut buckets: Vec<BytesMut> = (0..n).map(|_| BytesMut::new()).collect();
        for rec in data.chunks(SORT_RECORD_LEN) {
            if rec.len() < SORT_RECORD_LEN {
                continue; // trailing fragment (split-aligned inputs avoid this)
            }
            let p = (rec[0] as u32 * n) / 256;
            buckets[p as usize].put_slice(rec);
        }
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(p, b)| (p as u32, b.freeze().into()))
            .collect()
    }

    fn reduce(&self, _partition: u32, pieces: Vec<Gather>) -> Vec<Gather> {
        let pieces: Vec<Bytes> = pieces.into_iter().map(Gather::concat).collect();
        let mut records: Vec<&[u8]> = Vec::new();
        for piece in &pieces {
            for rec in piece.chunks(SORT_RECORD_LEN) {
                if rec.len() == SORT_RECORD_LEN {
                    records.push(rec);
                }
            }
        }
        records.sort_unstable_by_key(|r| &r[..SORT_KEY_LEN]);
        let mut out = BytesMut::with_capacity(records.len() * SORT_RECORD_LEN);
        for r in records {
            out.put_slice(r);
        }
        vec![out.freeze().into()]
    }

    fn map_cpu_rate(&self) -> f64 {
        350e6
    }
    fn reduce_cpu_rate(&self) -> f64 {
        200e6
    }
}

/// Real word counting over whitespace-separated text.
pub struct WordCountLogic;

fn wc_partition(word: &str, partitions: u32) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in word.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % partitions.max(1) as u64) as u32
}

impl JobLogic for WordCountLogic {
    fn map(&self, _split: usize, data: Gather, partitions: u32) -> Vec<(u32, Gather)> {
        let data = data.concat();
        let text = String::from_utf8_lossy(&data);
        let mut counts: Vec<BTreeMap<&str, u64>> =
            (0..partitions.max(1)).map(|_| BTreeMap::new()).collect();
        for word in text.split_whitespace() {
            let p = wc_partition(word, partitions);
            *counts[p as usize].entry(word).or_default() += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(p, m)| {
                let mut buf = BytesMut::new();
                for (w, c) in m {
                    buf.put_slice(format!("{w}\t{c}\n").as_bytes());
                }
                (p as u32, buf.freeze().into())
            })
            .collect()
    }

    fn reduce(&self, _partition: u32, pieces: Vec<Gather>) -> Vec<Gather> {
        let mut total: BTreeMap<String, u64> = BTreeMap::new();
        for piece in pieces {
            let piece = piece.concat();
            let text = String::from_utf8_lossy(&piece);
            for line in text.lines() {
                if let Some((w, c)) = line.split_once('\t') {
                    if let Ok(c) = c.parse::<u64>() {
                        *total.entry(w.to_owned()).or_default() += c;
                    }
                }
            }
        }
        let mut buf = BytesMut::new();
        for (w, c) in total {
            buf.put_slice(format!("{w}\t{c}\n").as_bytes());
        }
        vec![buf.freeze().into()]
    }

    fn map_cpu_rate(&self) -> f64 {
        150e6
    }
}

/// Real grep: emit lines containing the needle.
pub struct GrepLogic {
    /// Substring to search for.
    pub needle: String,
}

impl JobLogic for GrepLogic {
    fn map(&self, _split: usize, data: Gather, _partitions: u32) -> Vec<(u32, Gather)> {
        let data = data.concat();
        let text = String::from_utf8_lossy(&data);
        let mut buf = BytesMut::new();
        for line in text.lines() {
            if line.contains(&self.needle) {
                buf.put_slice(line.as_bytes());
                buf.put_u8(b'\n');
            }
        }
        if buf.is_empty() {
            Vec::new()
        } else {
            vec![(0, buf.freeze().into())]
        }
    }

    fn reduce(&self, _partition: u32, pieces: Vec<Gather>) -> Vec<Gather> {
        pieces
    }

    fn map_cpu_rate(&self) -> f64 {
        400e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gather(parts: &[&'static [u8]]) -> Gather {
        Gather::from(
            parts
                .iter()
                .map(|p| Bytes::from_static(p))
                .collect::<Vec<_>>(),
        )
    }

    /// What a writer appending `outs` in order ends up holding.
    fn joined(outs: Vec<Gather>) -> Vec<u8> {
        outs.into_iter().flat_map(|g| g.concat().to_vec()).collect()
    }

    /// `bytes` dealt as views of elements of uneven sizes (the way a
    /// burst-buffer split arrives: chunk views whose seams fall inside
    /// records, lines and words).
    fn dealt(bytes: &Bytes, sizes: &[usize]) -> Gather {
        let mut g = Gather::default();
        let (mut at, mut i) = (0, 0);
        while at < bytes.len() {
            let n = sizes[i % sizes.len()].min(bytes.len() - at);
            g.push(bytes.slice(at..at + n));
            at += n;
            i += 1;
        }
        g
    }

    /// What `SyntheticShuffleLogic::map` cut from one contiguous split
    /// before splits arrived as gathers.
    fn contiguous_pieces(
        l: &SyntheticShuffleLogic,
        data: &Bytes,
        partitions: u32,
    ) -> Vec<(u32, Bytes)> {
        let out = data.slice(..((data.len() as f64 * l.output_ratio) as usize).min(data.len()));
        let n = partitions.max(1) as usize;
        let per = out.len() / n;
        (0..n)
            .map(|p| {
                let end = if p == n - 1 { out.len() } else { (p + 1) * per };
                (p as u32, out.slice(p * per..end))
            })
            .filter(|(_, b)| !b.is_empty())
            .collect()
    }

    #[test]
    fn synthetic_pieces_are_views_that_join_to_the_contiguous_slices() {
        let data = Bytes::from(
            (0..10_007u32)
                .map(|i| (i * 7 % 253) as u8)
                .collect::<Vec<u8>>(),
        );
        for l in [
            SyntheticShuffleLogic::sort(),
            SyntheticShuffleLogic::aggregation(0.37),
        ] {
            for partitions in [1, 3, 16] {
                let split = dealt(&data, &[4096, 1000, 37]);
                let got = l.map(0, split, partitions);
                let want = contiguous_pieces(&l, &data, partitions);
                assert_eq!(got.len(), want.len());
                for ((gp, g), (wp, w)) in got.iter().zip(&want) {
                    assert_eq!(gp, wp);
                    // every element is a view of the input, not a copy
                    for e in g.iter() {
                        let off = e.as_ptr() as usize - data.as_ptr() as usize;
                        assert!(off + e.len() <= data.len());
                    }
                    assert_eq!(g.clone().concat(), *w, "partition {gp} of {partitions}");
                }
                // reduce hands the writer the pieces, in order, as they are
                let pieces: Vec<Gather> = got.into_iter().map(|(_, g)| g).collect();
                let want = joined(pieces.clone());
                let out = l.reduce(0, pieces);
                assert_eq!(joined(out), want);
            }
        }
    }

    #[test]
    fn real_logics_read_through_element_seams() {
        // 100-byte records and text whose lines and words straddle seams
        let records = Bytes::from(
            (0..60u32)
                .flat_map(|r| {
                    (0..SORT_RECORD_LEN as u32).map(move |i| ((r * 89 + i * 13) % 251) as u8)
                })
                .collect::<Vec<u8>>(),
        );
        let text = Bytes::from(
            (0..400)
                .map(|i| {
                    if i % 7 == 0 {
                        "error here\n"
                    } else {
                        "fine words go by\n"
                    }
                })
                .collect::<String>(),
        );
        let grep = GrepLogic {
            needle: "error".into(),
        };
        let logics: [(&dyn JobLogic, &Bytes); 3] = [
            (&RecordSortLogic, &records),
            (&WordCountLogic, &text),
            (&grep, &text),
        ];
        for (logic, input) in logics {
            let whole = logic.map(0, input.clone().into(), 4);
            let seamed = logic.map(0, dealt(input, &[64, 250, 7]), 4);
            let flat = |v: Vec<(u32, Gather)>| -> Vec<(u32, Bytes)> {
                v.into_iter().map(|(p, g)| (p, g.concat())).collect()
            };
            let (whole, seamed) = (flat(whole), flat(seamed));
            assert_eq!(whole, seamed);
            // and reduce over pieces that arrive seamed writes what it
            // writes over contiguous ones
            for (p, piece) in whole {
                let one = logic.reduce(p, vec![piece.clone().into()]);
                let split = logic.reduce(p, vec![dealt(&piece, &[33, 100])]);
                assert_eq!(joined(one), joined(split));
            }
        }
    }

    #[test]
    fn identity_passthrough() {
        let l = IdentityLogic;
        let input = Bytes::from_static(b"abc");
        let out = l.map(0, input.clone().into(), 4);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1.clone().concat().as_ptr(), input.as_ptr());
        let red = l.reduce(0, vec![gather(&[b"x", b"yz"]), gather(&[b"w"])]);
        assert_eq!(red.len(), 2);
        assert_eq!(joined(red), b"xyzw");
    }

    #[test]
    fn synthetic_partitions_cover_scaled_output() {
        let l = SyntheticShuffleLogic::sort();
        let data = Bytes::from(vec![7u8; 1000]);
        let out = l.map(0, data.into(), 4);
        let total: usize = out.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 1000);
        assert_eq!(out.len(), 4);
        let agg = SyntheticShuffleLogic::aggregation(0.1);
        let out = agg.map(0, Bytes::from(vec![1u8; 1000]).into(), 2);
        let total: usize = out.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn record_sort_end_to_end_sorted() {
        let logic = RecordSortLogic;
        // build 50 records with descending keys
        let mut input = BytesMut::new();
        for i in (0..50u8).rev() {
            let mut rec = vec![0u8; SORT_RECORD_LEN];
            rec[0] = i;
            rec[1] = b'k';
            input.put_slice(&rec);
        }
        let pieces = logic.map(0, input.freeze().into(), 4);
        // run each partition's reduce and check global order
        let mut all = Vec::new();
        let mut by_p: Vec<Vec<Gather>> = vec![Vec::new(); 4];
        for (p, b) in pieces {
            by_p[p as usize].push(b);
        }
        for (p, pieces) in by_p.into_iter().enumerate() {
            if pieces.is_empty() {
                continue;
            }
            for out in logic.reduce(p as u32, pieces) {
                all.push(out);
            }
        }
        let merged = joined(all);
        assert_eq!(merged.len(), 50 * SORT_RECORD_LEN);
        let keys: Vec<u8> = merged.chunks(SORT_RECORD_LEN).map(|r| r[0]).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "partitioned sort is not globally ordered");
    }

    #[test]
    fn word_count_counts() {
        let l = WordCountLogic;
        let out = l.map(0, gather(&[b"the cat and the hat and the bat"]), 1);
        assert_eq!(out.len(), 1);
        let red = l.reduce(0, out.into_iter().map(|(_, b)| b).collect());
        let text = String::from_utf8(joined(red)).unwrap();
        assert!(text.contains("the\t3"));
        assert!(text.contains("and\t2"));
        assert!(text.contains("cat\t1"));
    }

    #[test]
    fn word_count_merges_across_maps() {
        let l = WordCountLogic;
        let m1 = l.map(0, gather(&[b"x x y"]), 1);
        let m2 = l.map(1, gather(&[b"x y z"]), 1);
        let pieces: Vec<Gather> = m1.into_iter().chain(m2).map(|(_, b)| b).collect();
        let red = l.reduce(0, pieces);
        let text = String::from_utf8(joined(red)).unwrap();
        assert!(text.contains("x\t3"));
        assert!(text.contains("y\t2"));
        assert!(text.contains("z\t1"));
    }

    #[test]
    fn grep_finds_matching_lines_only() {
        let l = GrepLogic {
            needle: "error".into(),
        };
        let out = l.map(
            0,
            gather(&[b"ok line\nerror: bad\nfine\nanother error here\n"]),
            3,
        );
        assert_eq!(out.len(), 1);
        let text = String::from_utf8(out[0].1.clone().concat().to_vec()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("error")));
        // no matches → no output pieces
        let none = l.map(0, gather(&[b"clean\n"]), 3);
        assert!(none.is_empty());
    }
}
