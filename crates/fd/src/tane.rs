//! Levelwise multi-attribute FD discovery (TANE-style; Huhtala et al.
//! 1999), the deeper cousin of the unary mining in [`crate::mine`].
//!
//! The paper's pipeline only *consumes* unary FDs (Raha's detectors,
//! BART's injection targets, Matelda's structural features), but its
//! benchmark creation runs HyFD, which discovers **minimal FDs with
//! composite left-hand sides**. This module supplies that capability:
//!
//! * stripped-partition *products* (`π_{X∪Y} = π_X · π_Y`) computed with
//!   the classic probe-table trick,
//! * levelwise lattice search with the standard pruning rules
//!   (rhs-candidate sets, key pruning),
//! * minimality: `X → a` is only emitted if no proper subset of `X`
//!   determines `a`.
//!
//! Complexity is exponential in the worst case like every FD miner; the
//! `max_lhs` bound keeps it practical (the paper's HyFD runs were bounded
//! by table size too — they dropped tables over 4 MB).

use crate::partition::Partition;
use matelda_table::Table;
use std::collections::{HashMap, HashSet};

/// A (possibly composite) functional dependency `lhs → rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompositeFd {
    /// Determining attribute set, sorted ascending.
    pub lhs: Vec<usize>,
    /// Determined attribute.
    pub rhs: usize,
}

/// Product of two stripped partitions: the partition of the combined
/// attribute set. Implemented with the probe-table algorithm: for each
/// group of `a`, split members by their group id in `b`.
pub fn partition_product(a: &Partition, b: &Partition, n_rows: usize) -> Partition {
    // Row -> group id in b (usize::MAX = singleton / stripped).
    let mut group_of_b = vec![usize::MAX; n_rows];
    for (gid, group) in b.groups.iter().enumerate() {
        for &r in group {
            group_of_b[r] = gid;
        }
    }
    let mut groups = Vec::new();
    for group in &a.groups {
        let mut split: HashMap<usize, Vec<usize>> = HashMap::new();
        for &r in group {
            let gb = group_of_b[r];
            if gb != usize::MAX {
                split.entry(gb).or_default().push(r);
            }
        }
        for (_, members) in split {
            if members.len() >= 2 {
                groups.push(members);
            }
        }
    }
    groups.iter_mut().for_each(|g| g.sort_unstable());
    groups.sort_by_key(|g| g[0]);
    Partition { groups, n_rows }
}

/// `true` iff `lhs_partition` refines column `rhs`: every group of the
/// LHS partition is constant in the RHS column.
fn refines(lhs_partition: &Partition, table: &Table, rhs: usize) -> bool {
    let values = &table.columns[rhs].values;
    lhs_partition.groups.iter().all(|group| {
        let first = &values[group[0]];
        group.iter().all(|&r| &values[r] == first)
    })
}

/// Mines all *minimal* exact FDs with LHS size `1..=max_lhs` on `table`.
/// Results are sorted for determinism.
pub fn mine_composite(table: &Table, max_lhs: usize) -> Vec<CompositeFd> {
    let m = table.n_cols();
    let n = table.n_rows();
    if m < 2 || n == 0 {
        return Vec::new();
    }

    let singles: Vec<Partition> = (0..m).map(|c| Partition::of_column(table, c)).collect();
    let mut results: Vec<CompositeFd> = Vec::new();
    // Attribute sets already known to determine a given rhs (for
    // minimality pruning).
    let mut determined_by: HashMap<usize, Vec<Vec<usize>>> = HashMap::new();

    // Level 1.
    let mut current: Vec<(Vec<usize>, Partition)> = Vec::new();
    for c in 0..m {
        for rhs in 0..m {
            if rhs == c {
                continue;
            }
            if refines(&singles[c], table, rhs) {
                results.push(CompositeFd { lhs: vec![c], rhs });
                determined_by.entry(rhs).or_default().push(vec![c]);
            }
        }
        current.push((vec![c], singles[c].clone()));
    }

    // Levels 2..=max_lhs.
    for _level in 2..=max_lhs {
        let mut next: Vec<(Vec<usize>, Partition)> = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        for (lhs, part) in &current {
            // Key pruning: a key-like partition (no duplicate groups)
            // trivially determines everything; supersets add nothing.
            if part.is_key() {
                continue;
            }
            let &last = lhs.last().expect("non-empty lhs");
            for extend in (last + 1)..m {
                let mut new_lhs = lhs.clone();
                new_lhs.push(extend);
                if !seen.insert(new_lhs.clone()) {
                    continue;
                }
                let product = partition_product(part, &singles[extend], n);
                for rhs in 0..m {
                    if new_lhs.contains(&rhs) {
                        continue;
                    }
                    // Minimality: skip if a subset already determines rhs.
                    let minimal = determined_by
                        .get(&rhs)
                        .is_none_or(|subs| !subs.iter().any(|s| is_subset(s, &new_lhs)));
                    if minimal && refines(&product, table, rhs) {
                        results.push(CompositeFd { lhs: new_lhs.clone(), rhs });
                        determined_by.entry(rhs).or_default().push(new_lhs.clone());
                    }
                }
                next.push((new_lhs, product));
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }

    results.sort();
    results
}

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    small.iter().all(|x| big.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::Column;

    /// city+street -> zip holds, but neither city nor street alone does.
    fn addresses() -> Table {
        Table::new(
            "addr",
            vec![
                Column::new("city", ["Paris", "Paris", "Lyon", "Lyon", "Paris", "Lyon"]),
                Column::new("street", ["Main", "High", "Main", "High", "Main", "Main"]),
                Column::new("zip", ["75001", "75002", "69001", "69002", "75001", "69001"]),
            ],
        )
    }

    #[test]
    fn finds_composite_fd_missed_by_unary_mining() {
        let t = addresses();
        // No unary FD determines zip.
        let unary = crate::mine::mine_approximate(&t, 0.0);
        assert!(!unary.iter().any(|fd| fd.rhs == 2), "{unary:?}");
        // The composite miner finds {city, street} -> zip.
        let fds = mine_composite(&t, 2);
        assert!(fds.contains(&CompositeFd { lhs: vec![0, 1], rhs: 2 }), "{fds:?}");
        // And zip -> city (unary, exact) appears too.
        assert!(fds.contains(&CompositeFd { lhs: vec![2], rhs: 0 }));
    }

    #[test]
    fn minimality_suppresses_redundant_supersets() {
        // id is a key: id -> everything at level 1; no {id, x} -> y may
        // be emitted.
        let t = Table::new(
            "t",
            vec![
                Column::new("id", ["1", "2", "3", "4"]),
                Column::new("a", ["x", "x", "y", "y"]),
                Column::new("b", ["p", "p", "q", "q"]),
            ],
        );
        let fds = mine_composite(&t, 3);
        for fd in &fds {
            if fd.lhs.contains(&0) {
                assert_eq!(fd.lhs, vec![0], "non-minimal LHS {fd:?}");
            }
        }
        // a <-> b at level 1.
        assert!(fds.contains(&CompositeFd { lhs: vec![1], rhs: 2 }));
        assert!(fds.contains(&CompositeFd { lhs: vec![2], rhs: 1 }));
    }

    #[test]
    fn partition_product_matches_direct_grouping() {
        let t = addresses();
        let pa = Partition::of_column(&t, 0);
        let pb = Partition::of_column(&t, 1);
        let product = partition_product(&pa, &pb, t.n_rows());
        // Direct computation: group rows by (city, street).
        let combined: Vec<String> =
            (0..t.n_rows()).map(|r| format!("{}|{}", t.cell(r, 0), t.cell(r, 1))).collect();
        let direct = Partition::of_column(&Table::new("ab", vec![Column::new("ab", combined)]), 0);
        assert_eq!(product.groups, direct.groups);
    }

    #[test]
    fn max_lhs_bounds_the_search() {
        let t = addresses();
        let level1 = mine_composite(&t, 1);
        assert!(level1.iter().all(|fd| fd.lhs.len() == 1));
        let level2 = mine_composite(&t, 2);
        assert!(level2.len() > level1.len());
    }

    #[test]
    fn degenerate_tables() {
        let empty = Table::new("e", vec![]);
        assert!(mine_composite(&empty, 2).is_empty());
        let one_col = Table::new("o", vec![Column::new("a", ["1", "1"])]);
        assert!(mine_composite(&one_col, 2).is_empty());
    }
}
