//! Output checks against references that are not the timed code path.
//!
//! Minimization outputs are checked against the generator's known minimal
//! size. Match answers are checked against answers computed, untimed, by
//! other evaluators on the unminimized query: the naive enumerator on a
//! small slice of the document and the embed matcher on all of it.

use tpq_base::TypeInterner;
use tpq_pattern::parse_pattern;

/// Check one minimized query (DSL text) against its known minimal size.
pub fn minimized_size(output: &str, expected: usize) -> Result<(), String> {
    // Names do not matter for the size; a throwaway interner keeps the
    // check independent of the program's own.
    let q = parse_pattern(output, &mut TypeInterner::new())
        .map_err(|e| format!("output does not parse ({e}): {output}"))?;
    if q.size() == expected {
        Ok(())
    } else {
        Err(format!("{} nodes, expected {expected}: {output}", q.size()))
    }
}

/// The reference answers of one match query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerRef {
    /// Answer count of the unminimized query on the whole document.
    pub full_count: usize,
    /// Pre-order ranks of the unminimized query's answers inside the
    /// slice, ascending.
    pub slice: Vec<u32>,
}

/// The document slice: a subtree, as a contiguous pre-order range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Pre-order rank of the subtree root.
    pub start: u32,
    /// Nodes in the subtree.
    pub len: u32,
}

/// Check timed match answers, given as pre-order ranks, against the
/// reference. The pattern's root is its output node, so every embedding
/// of an answer inside the slice stays inside the slice, and the answers
/// there must equal those computed on the slice alone.
pub fn answers(pre_ranks: &[u32], slice: Slice, reference: &AnswerRef) -> Result<(), String> {
    if pre_ranks.len() != reference.full_count {
        return Err(format!(
            "{} answers on the document, reference {}",
            pre_ranks.len(),
            reference.full_count
        ));
    }
    let mut inside: Vec<u32> = pre_ranks
        .iter()
        .copied()
        .filter(|&p| p >= slice.start && p - slice.start < slice.len)
        .collect();
    inside.sort_unstable();
    if inside != reference.slice {
        return Err(format!(
            "{} answers in the slice, reference {} (first difference at {:?})",
            inside.len(),
            reference.slice.len(),
            inside.iter().zip(&reference.slice).position(|(a, b)| a != b)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_check_rejects_one_node_too_many() {
        assert!(minimized_size("tR*[//tX]/tF0", 3).is_ok());
        let err = minimized_size("tR*[//tX][//tX]/tF0", 3).unwrap_err();
        assert!(err.contains("4 nodes, expected 3"), "{err}");
        assert!(minimized_size("tR*", 2).is_err(), "one node too few");
        assert!(minimized_size("# error: budget", 1).is_err(), "error lines fail");
    }

    #[test]
    fn answer_check_rejects_dropped_and_extra_answers() {
        let slice = Slice { start: 100, len: 50 };
        let reference = AnswerRef { full_count: 4, slice: vec![101, 120] };
        assert!(answers(&[5, 120, 101, 400], slice, &reference).is_ok());
        // One answer dropped.
        assert!(answers(&[5, 101, 400], slice, &reference).is_err());
        // Right count, but one slice answer replaced by another node.
        assert!(answers(&[5, 102, 120, 400], slice, &reference).is_err());
        // Slice answers right, an answer outside the slice added.
        assert!(answers(&[5, 101, 120, 400, 401], slice, &reference).is_err());
        // Slice bounds are half-open.
        let edge = AnswerRef { full_count: 2, slice: vec![149] };
        assert!(answers(&[149, 150], slice, &edge).is_ok());
    }
}
