//! The row-segment scan shared by the near- and far-field kernels, and the
//! per-sender pair counts it feeds.
//!
//! Both kernels ask the same question many times per cell: "which ranks own
//! the occupied cells of this neighborhood?". An NFI neighborhood is a
//! stack of clipped row segments around a particle with the particle's own
//! cell cut out. An FFI interaction list is the parent's 6×6 block of
//! children with the cell's own 3×3 cut out. So both reduce to one
//! primitive, [`scan_row`]: count one row segment, minus a hole.
//!
//! Both relations are symmetric, and so is hop distance. So the kernels
//! scan half of each neighborhood: only the cells that come after the
//! sender's own in row-major order, `(ny, nx) > (y, x)`. Every pair of
//! cells is then visited once and stands for one message each way. The
//! [`PairSink`] contract says which families a kernel delivers that way.
//!
//! The rank source is one level's [`GridIndex`]. Where the index is
//! dense, a segment is a contiguous slice of a rank row. Where it is
//! sparse (grids over the cell cap, or assignments built with
//! `with_dense_grid(.., false)`), the same cells are probed one at a time.
//! Both branches visit the same cells, so the counts are identical.
//!
//! A scan never asks how far a message travels. The paper's ACD separates
//! into traffic, which depends only on the particles, the particle curve
//! and `p`, and distance, which depends only on the machine. So the kernels
//! walk one sender's cells at a time and count its messages per receiver in
//! a [`PairCounts`]: a dense `P`-entry table plus the list of receivers it
//! touched. When the sender changes, the distinct `(sender, receiver,
//! count)` triples go to a [`PairSink`] and the table is cleared. The
//! [`Totals`] sink evaluates them on a whole machine set at once:
//! `distance[m] += count · m.distance(s, r)`, doubled for an undirected
//! family. One scan of an assignment therefore serves every machine it is
//! measured on, and a message costs one counter increment, whatever the
//! machine.

use crate::machine::Machine;
use sfc_particles::GridIndex;
use std::cell::RefCell;
use std::ops::Range;

/// Where a scan delivers its traffic: one call per run of a sender's
/// cells, with each distinct receiver and the number of messages it got.
/// A sender whose cells are not contiguous in the scan is delivered in
/// several calls; every sink only sums, so that changes nothing.
///
/// A kernel delivers each message family either *directed*, where
/// `(receiver, count)` from `sender` stands for `count` messages
/// `sender → receiver`, or *undirected*, where it stands for `count`
/// messages each way, `sender → receiver` and `receiver → sender` (so
/// `2 · count` rank-local messages when the two are equal). An undirected
/// family is scanned over half of each neighborhood, so a pair may come
/// from either end. [`nfi_traffic`](crate::nfi::nfi_traffic) delivers the
/// near field undirected; [`ffi_traffic`](crate::ffi::ffi_traffic)
/// delivers interpolation directed and interaction lists undirected.
pub trait PairSink {
    /// Take the `(receiver, count)` pairs of `sender`. Every count is
    /// positive and every receiver appears once; `sender` itself may be
    /// among them (rank-local messages).
    fn take(&mut self, sender: u32, pairs: impl Iterator<Item = (u32, u64)> + Clone);
}

/// Messages from one sender, counted per receiver.
///
/// The counts are `u64`, so they cannot overflow: a scan counts fewer
/// messages than `u64::MAX` (at most one per pair of cells of a level).
#[derive(Debug, Default)]
pub(crate) struct PairCounts {
    /// The rank whose messages are being counted.
    sender: u32,
    /// `counts[r]`: messages to rank `r`; zero outside `touched`.
    counts: Vec<u64>,
    /// Receivers with a non-zero count, in first-touch order.
    touched: Vec<u32>,
}

impl PairCounts {
    /// Clear the counts and size them for receivers `0..ranks`. The
    /// allocation is reused, so once a thread has counted for `ranks`
    /// ranks this allocates nothing.
    pub fn reset(&mut self, ranks: u64) {
        let ranks = ranks as usize;
        self.sender = 0;
        self.counts.clear();
        self.counts.resize(ranks, 0);
        self.touched.clear();
        // At most `ranks` distinct receivers: `add` never reallocates.
        self.touched.reserve(ranks);
    }

    /// Count messages from `sender` from now on, first handing the
    /// previous sender's counts to `sink` if it differs.
    #[inline]
    pub fn send_from(&mut self, sender: u32, sink: &mut impl PairSink) {
        if sender != self.sender {
            self.flush(sink);
            self.sender = sender;
        }
    }

    /// Hand the current sender's counts to `sink` and clear them.
    pub fn flush(&mut self, sink: &mut impl PairSink) {
        if self.touched.is_empty() {
            return;
        }
        let counts = &self.counts;
        sink.take(
            self.sender,
            self.touched.iter().map(|&r| (r, counts[r as usize])),
        );
        for &r in &self.touched {
            self.counts[r as usize] = 0;
        }
        self.touched.clear();
    }

    /// Count one message to `receiver`.
    #[inline]
    fn add(&mut self, receiver: u32) {
        let count = &mut self.counts[receiver as usize];
        if *count == 0 {
            self.touched.push(receiver);
        }
        *count += 1;
    }

    /// Count one message to the owner of every occupied slot of a dense
    /// row segment.
    #[inline]
    fn add_slots(&mut self, seg: &[u32]) {
        for &other in seg {
            if other != GridIndex::EMPTY {
                self.add(other);
            }
        }
    }
}

/// Traffic evaluated on a machine set: the hop-distance sum on each
/// machine, plus the message counts, which no machine changes.
///
/// An undirected family's pairs count twice: `2 · count` messages, and
/// `2 · count · d(s, r)` hops, since `d` is symmetric. Every sum is an
/// integer, so this is exact.
pub(crate) struct Totals<'a> {
    machines: &'a [&'a Machine],
    /// `distance[m]`: hop-distance sum on `machines[m]`.
    distance: &'a mut [u64],
    /// Messages one delivered count stands for: 1 for a directed family,
    /// 2 for an undirected one.
    ways: u64,
    /// Messages.
    pub comms: u64,
    /// Messages whose two ends are on the same rank.
    pub local: u64,
}

impl<'a> Totals<'a> {
    /// Totals of a directed family on `machines`, adding each machine's
    /// distances to its slot of `distance`.
    pub fn directed(machines: &'a [&'a Machine], distance: &'a mut [u64]) -> Self {
        Self::new(machines, distance, 1)
    }

    /// Totals of an undirected family on `machines`, adding each machine's
    /// distances to its slot of `distance`.
    pub fn undirected(machines: &'a [&'a Machine], distance: &'a mut [u64]) -> Self {
        Self::new(machines, distance, 2)
    }

    fn new(machines: &'a [&'a Machine], distance: &'a mut [u64], ways: u64) -> Self {
        assert_eq!(machines.len(), distance.len(), "one distance per machine");
        Totals {
            machines,
            distance,
            ways,
            comms: 0,
            local: 0,
        }
    }
}

impl PairSink for Totals<'_> {
    fn take(&mut self, sender: u32, pairs: impl Iterator<Item = (u32, u64)> + Clone) {
        let (mut comms, mut local) = (0, 0);
        for (receiver, count) in pairs.clone() {
            comms += count;
            if receiver == sender {
                local += count;
            }
        }
        self.comms += self.ways * comms;
        self.local += self.ways * local;
        let remote = pairs.filter(|&(receiver, _)| receiver != sender);
        for (machine, sum) in self.machines.iter().zip(self.distance.iter_mut()) {
            *sum += self.ways
                * remote
                    .clone()
                    .map(|(receiver, count)| count * machine.distance(sender, receiver))
                    .sum::<u64>();
        }
    }
}

/// Per-thread scan state, reused across kernel calls so a warm thread
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Two independent counters: the near field uses the first, the far
    /// field one per message family.
    pub counts: [PairCounts; 2],
    /// Packed cells of one level, grouped by owner.
    pub order: Vec<u64>,
    /// Bucket bounds of `order`, one per rank plus one.
    pub starts: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Run `f` on this thread's [`Scratch`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Count a message from the current sender of `acc` to every occupied cell
/// `(x, y)` with `x` in `xs` but not in `hole`. Both ranges are half-open.
/// `xs` must lie inside the level's side; `hole` may overhang it, and an
/// empty `hole` (such as `0..0`) cuts nothing.
#[inline]
pub(crate) fn scan_row(
    rows: &GridIndex,
    y: u32,
    xs: Range<u32>,
    hole: Range<u32>,
    acc: &mut PairCounts,
) {
    match rows.row(y) {
        Some(row) => {
            // Split around the hole into two contiguous slices. A row the
            // hole misses takes one call: splitting it anyway made the NFI
            // scan ~1.5× slower.
            let row = &row[xs.start as usize..xs.end as usize];
            let cut = |x: u32| (x.clamp(xs.start, xs.end) - xs.start) as usize;
            let (a, b) = (cut(hole.start), cut(hole.end));
            if a == b {
                acc.add_slots(row);
            } else {
                acc.add_slots(&row[..a]);
                acc.add_slots(&row[b..]);
            }
        }
        None => {
            for x in xs {
                if hole.contains(&x) {
                    continue;
                }
                if let Some(other) = rows.rank_of(x, y) {
                    acc.add(other);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::CurveKind;
    use sfc_topology::TopologyKind;
    use std::collections::BTreeMap;

    /// Every delivered `(sender, receiver)` count, merged per pair.
    #[derive(Debug, Default, PartialEq)]
    struct Pairs(BTreeMap<(u32, u32), u64>);

    impl PairSink for Pairs {
        fn take(&mut self, sender: u32, pairs: impl Iterator<Item = (u32, u64)> + Clone) {
            for (receiver, count) in pairs {
                assert!(count > 0);
                *self.0.entry((sender, receiver)).or_default() += count;
            }
        }
    }

    /// A 4×4 level held twice: as a dense and as a sparse index.
    fn level() -> [GridIndex; 2] {
        let e = GridIndex::EMPTY;
        #[rustfmt::skip]
        let ranks = [
            0, e, 2, 3,
            e, 5, 5, e,
            8, e, e, 11,
            e, 13, 14, 15,
        ];
        [GridIndex::new(2, 16), GridIndex::sparse(2, 16)].map(|mut g| {
            for (i, &r) in ranks.iter().enumerate() {
                if r != e {
                    g.insert_first(i as u32 % 4, i as u32 / 4, r);
                }
            }
            g
        })
    }

    /// Count one segment of `rows` from `sender`.
    fn scan(rows: &GridIndex, sender: u32, y: u32, xs: Range<u32>, hole: Range<u32>) -> Pairs {
        let (mut acc, mut out) = (PairCounts::default(), Pairs::default());
        acc.reset(16);
        acc.send_from(sender, &mut out);
        scan_row(rows, y, xs, hole, &mut acc);
        acc.flush(&mut out);
        out
    }

    /// The probe branch, which serves sparse indexes, visits exactly the
    /// cells the slice branch does, for every segment and hole placement.
    #[test]
    fn probe_branch_matches_dense_rows() {
        let [dense, sparse] = level();
        assert!(dense.is_dense() && !sparse.is_dense());
        for sender in [0, 5, 14] {
            for y in 0..4 {
                for lo in 0..4 {
                    for hi in lo..=4 {
                        for hole in [0..0, 0..1, 1..3, 2..5, 3..4] {
                            assert_eq!(
                                scan(&dense, sender, y, lo..hi, hole.clone()),
                                scan(&sparse, sender, y, lo..hi, hole.clone()),
                                "y {y} xs {lo}..{hi} hole {hole:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Local messages count but travel nowhere; remote ones add their
    /// hop distance on every machine of the set.
    #[test]
    fn totals_count_local_and_remote_messages_on_every_machine() {
        let [dense, _] = level();
        let mesh = Machine::closed_form(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let ring = Machine::new(TopologyKind::Ring, 64, CurveKind::RowMajor);
        let machines = [&mesh, &ring];
        let mut distance = [0; 2];
        let mut totals = Totals::directed(&machines, &mut distance);
        let mut acc = PairCounts::default();
        acc.reset(16);
        acc.send_from(5, &mut totals);
        // Row 1 is [_, 5, 5, _]; cutting out x = 1 leaves one local cell.
        scan_row(&dense, 1, 0..4, 1..2, &mut acc);
        // Row 3 is [_, 13, 14, 15]: three remote messages, twice.
        scan_row(&dense, 3, 0..4, 0..0, &mut acc);
        scan_row(&dense, 3, 0..4, 0..0, &mut acc);
        acc.flush(&mut totals);
        assert_eq!((totals.comms, totals.local), (7, 1));
        for (m, machine) in machines.iter().enumerate() {
            let want: u64 = [13, 14, 15]
                .iter()
                .map(|&r| 2 * machine.distance(5, r))
                .sum();
            assert_eq!(distance[m], want, "machine {m}");
        }
    }

    /// An undirected family's pair stands for one message each way: twice
    /// the messages, local ones too, and twice the hops.
    #[test]
    fn undirected_totals_count_each_pair_both_ways() {
        let mesh = Machine::closed_form(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let machines = [&mesh];
        let (mut one, mut two) = ([0], [0]);
        let mut directed = Totals::directed(&machines, &mut one);
        let mut undirected = Totals::undirected(&machines, &mut two);
        directed.take(5, [(5, 1), (13, 2)].into_iter());
        undirected.take(5, [(5, 1), (13, 2)].into_iter());
        assert_eq!((directed.comms, directed.local), (3, 1));
        assert_eq!((undirected.comms, undirected.local), (6, 2));
        let hops = mesh.distance(5, 13);
        assert!(hops > 0);
        assert_eq!((one[0], two[0]), (2 * hops, 4 * hops));
    }

    /// A sender whose cells come in several runs is delivered in several
    /// pieces, and a new sender flushes the previous one first.
    #[test]
    fn send_from_flushes_on_every_sender_change() {
        let [dense, _] = level();
        let (mut acc, mut out) = (PairCounts::default(), Pairs::default());
        acc.reset(16);
        for sender in [2, 2, 8, 2] {
            acc.send_from(sender, &mut out);
            scan_row(&dense, 0, 0..4, 0..0, &mut acc);
        }
        acc.flush(&mut out);
        let want = |n| BTreeMap::from([((2, 0), n), ((2, 2), n), ((2, 3), n)]);
        let mut all = want(3);
        all.extend([((8, 0), 1), ((8, 2), 1), ((8, 3), 1)]);
        assert_eq!(out.0, all);
    }
}
