//! Word-parallel kernels for the packed dependency-matrix representation.
//!
//! [`DependencyFunction`](crate::DependencyFunction) stores its `n × n`
//! matrix as a flat bit array of 3-bit cells packed 21 to a `u64` word
//! (63 bits used, the top bit always zero). The cell encoding is chosen so
//! the seven-value lattice embeds into the Boolean cube `2³` ordered by
//! bit inclusion:
//!
//! ```text
//! bit 0 (F): an unconditional or conditional *forward* claim (→ present)
//! bit 1 (B): an unconditional or conditional *backward* claim (← present)
//! bit 2 (Q): the claim is conditional ("may", the ? variants)
//!
//!   ‖ = 000   → = 001   ← = 010   ↔ = 011
//!             →? = 101  ←? = 110  ↔? = 111     (100 is unused)
//! ```
//!
//! Under this encoding the Figure 3 Hasse diagram is exactly the subset
//! order on `{F, B, Q}` restricted to the seven valid codes (`Q` alone is
//! not a value), which turns the per-cell lattice operations the learner
//! hammers into single-instruction word operations:
//!
//! * `a ⊑ b` per cell ⟺ `a & !b == 0` over the word,
//! * `a ⊔ b` = bitwise `a | b` (the OR of two valid codes is valid),
//! * `a ⊓ b` = bitwise `a & b`, followed by clearing `Q` in cells whose
//!   `F` and `B` both cleared (the one invalid code `100` normalizes to
//!   `‖`, which is the correct meet),
//! * `distance(v) = (F + B + Q)²` (0/1/4/9 per paper Definition 7), so a
//!   word's total weight is two popcounts (see [`word_weight`]),
//! * execution-consistency weakening is one masked shift-OR per word
//!   ([`word_weaken`]).
//!
//! Every kernel is validated against the scalar [`DependencyValue`] table
//! code by the unit tests below (exhaustive over all 7×7 cell pairs) and
//! by the `packed_prop` property suite at the crate root.

use crate::value::DependencyValue;

/// Bits per matrix cell.
pub const BITS_PER_CELL: usize = 3;

/// Cells per 64-bit word (the top bit stays zero).
pub const CELLS_PER_WORD: usize = 21;

/// Mask selecting one cell's three bits at shift 0.
pub const CELL_MASK: u64 = 0b111;

/// Every cell's `F` (forward) bit: bit 0 of each 3-bit lane.
pub const FORWARD_PLANE: u64 = {
    let mut mask = 0u64;
    let mut i = 0;
    while i < CELLS_PER_WORD {
        mask |= 1 << (BITS_PER_CELL * i);
        i += 1;
    }
    mask
};

/// Every cell's `B` (backward) bit.
pub const BACKWARD_PLANE: u64 = FORWARD_PLANE << 1;

/// Every cell's `Q` ("may") bit.
pub const MAYBE_PLANE: u64 = FORWARD_PLANE << 2;

/// 3-bit cube codes indexed by [`DependencyValue`] discriminant.
const ENCODE: [u64; 7] = [
    0b000, // Parallel
    0b001, // Determines
    0b010, // DependsOn
    0b011, // Mutual
    0b101, // MayDetermine
    0b110, // MayDependOn
    0b111, // MayMutual
];

/// Values indexed by cube code; the unused code `100` maps to `‖` (it
/// never occurs in a well-formed store).
const DECODE: [DependencyValue; 8] = [
    DependencyValue::Parallel,
    DependencyValue::Determines,
    DependencyValue::DependsOn,
    DependencyValue::Mutual,
    DependencyValue::Parallel, // 100: unused
    DependencyValue::MayDetermine,
    DependencyValue::MayDependOn,
    DependencyValue::MayMutual,
];

/// The 3-bit cube code of a lattice value.
#[inline]
#[must_use]
pub fn encode(v: DependencyValue) -> u64 {
    ENCODE[v as usize]
}

/// The lattice value of a 3-bit cube code (low three bits of `code`).
#[inline]
#[must_use]
pub fn decode(code: u64) -> DependencyValue {
    DECODE[(code & CELL_MASK) as usize]
}

/// The word index and bit shift of flat (row-major) cell `idx` in a
/// packed store.
#[inline]
#[must_use]
pub fn cell_slot(idx: usize) -> (usize, usize) {
    (idx / CELLS_PER_WORD, BITS_PER_CELL * (idx % CELLS_PER_WORD))
}

/// Whether every cell of `a` is `⊑` the corresponding cell of `b`.
///
/// Bit-inclusion per lane is exactly the lattice order (see the module
/// docs), so one AND-NOT decides 21 cells.
#[inline]
#[must_use]
pub fn word_leq(a: u64, b: u64) -> bool {
    a & !b == 0
}

/// Cell-wise least upper bound of two words.
#[inline]
#[must_use]
pub fn word_join(a: u64, b: u64) -> u64 {
    a | b
}

/// Cell-wise greatest lower bound of two words.
///
/// AND can leave the invalid lone-`Q` code `100` (e.g. `→? ⊓ ←?`); those
/// cells normalize to `‖`, which is the correct meet.
#[inline]
#[must_use]
pub fn word_meet(a: u64, b: u64) -> u64 {
    let m = a & b;
    // `F | B` of each cell, in the F position; a cell may keep its Q bit
    // only if at least one directional bit survived.
    let directional = (m | (m >> 1)) & FORWARD_PLANE;
    m & (!MAYBE_PLANE | (directional << 2))
}

/// Sum of per-cell distances (paper Definition 7) over one word.
///
/// With `s = F + B + Q` bits set in a cell, the distance is `s²`
/// (`‖`→0, `→`/`←`→1, `↔`/`→?`/`←?`→4, `↔?`→9). Writing `s = x + 2y`
/// with `x = F ⊕ B ⊕ Q` (`s` odd) and `y` the majority of the three
/// (`s ≥ 2`) gives `s² = x + 4(y + xy)`. `y` and `xy` fit in two
/// different bit planes of one word, so the word total is two popcounts.
#[inline]
#[must_use]
pub fn word_weight(w: u64) -> u64 {
    let f = w & FORWARD_PLANE;
    let b = (w >> 1) & FORWARD_PLANE;
    let q = (w >> 2) & FORWARD_PLANE;
    let odd = f ^ b ^ q;
    let high = (f & b) | (f & q) | (b & q);
    u64::from(odd.count_ones()) + 4 * u64::from((high | ((odd & high) << 1)).count_ones())
}

/// Execution-consistency weakening of one word: every cell selected by
/// `mask_q` (its `Q` bit set in the mask) that holds an unconditional
/// claim gains its `Q` bit — `→` becomes `→?`, `←` becomes `←?`, `↔`
/// becomes `↔?` — and every other cell is unchanged (`‖` stays `‖`, the
/// `?` values already carry `Q`). The learner sets the mask's `Q` bits at
/// the cells `(executed, not executed)` of a period.
#[inline]
#[must_use]
pub fn word_weaken(w: u64, mask_q: u64) -> u64 {
    w | ((((w & FORWARD_PLANE) << 2) | ((w & BACKWARD_PLANE) << 1)) & mask_q)
}

/// `Σ distance(a ⊔ b) − distance(a ⊓ b)` over one word's cells — the
/// per-word contribution to
/// [`DependencyFunction::lattice_distance`](crate::DependencyFunction::lattice_distance).
/// Never underflows: the meet is `⊑` the join cell-wise and distance is
/// monotone.
#[inline]
#[must_use]
pub fn word_lattice_distance(a: u64, b: u64) -> u64 {
    word_weight(word_join(a, b)) - word_weight(word_meet(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ALL_VALUES;

    #[test]
    fn encode_decode_round_trip() {
        for v in ALL_VALUES {
            assert_eq!(decode(encode(v)), v, "{v}");
            assert!(encode(v) <= CELL_MASK);
        }
        // The one invalid code normalizes to bottom.
        assert_eq!(decode(0b100), DependencyValue::Parallel);
    }

    #[test]
    fn encoding_is_the_cube_order() {
        for a in ALL_VALUES {
            for b in ALL_VALUES {
                let subset = encode(a) & !encode(b) == 0;
                assert_eq!(subset, a.leq(b), "leq({a}, {b})");
            }
        }
    }

    #[test]
    fn word_ops_match_scalar_tables_on_every_cell_pair() {
        // Pack each (a, b) pair into its own lane of one word pair and
        // check all 49 combinations in one go, plus per-pair words.
        for a in ALL_VALUES {
            for b in ALL_VALUES {
                let wa = encode(a);
                let wb = encode(b);
                assert_eq!(word_leq(wa, wb), a.leq(b), "leq({a}, {b})");
                assert_eq!(decode(word_join(wa, wb)), a.join(b), "join({a}, {b})");
                assert_eq!(decode(word_meet(wa, wb)), a.meet(b), "meet({a}, {b})");
                assert_eq!(word_weight(wa), a.distance(), "distance({a})");
            }
        }
    }

    #[test]
    fn word_ops_are_lane_independent() {
        // Fill all 21 lanes with a rotating pattern and compare against
        // the scalar ops lane by lane.
        let pattern = |offset: usize| -> u64 {
            let mut w = 0u64;
            for lane in 0..CELLS_PER_WORD {
                let v = ALL_VALUES[(lane + offset) % ALL_VALUES.len()];
                w |= encode(v) << (BITS_PER_CELL * lane);
            }
            w
        };
        let wa = pattern(0);
        let wb = pattern(3);
        let mut expect_weight = 0;
        for lane in 0..CELLS_PER_WORD {
            let shift = BITS_PER_CELL * lane;
            let a = decode(wa >> shift);
            let b = decode(wb >> shift);
            assert_eq!(decode(word_join(wa, wb) >> shift), a.join(b));
            assert_eq!(decode(word_meet(wa, wb) >> shift), a.meet(b));
            expect_weight += a.distance();
        }
        assert_eq!(word_weight(wa), expect_weight);
        assert!(word_leq(wa, wa));
        assert_eq!(
            word_lattice_distance(wa, wb),
            word_weight(word_join(wa, wb)) - word_weight(word_meet(wa, wb))
        );
    }

    #[test]
    fn weakening_kernel_matches_the_scalar_mapping() {
        use DependencyValue as V;
        // The scalar weakening rule: an unconditional claim of an
        // executed task about an absent one becomes conditional, every
        // other value is untouched.
        let weakened = |v: V| match v {
            V::Determines => V::MayDetermine,
            V::DependsOn => V::MayDependOn,
            V::Mutual => V::MayMutual,
            other => other,
        };
        for v in ALL_VALUES {
            for (masked, expect) in [(true, weakened(v)), (false, v)] {
                // The cell sits in lane 5; its neighbours hold every value
                // unmasked and must not move.
                let lane = 5;
                let shift = BITS_PER_CELL * lane;
                let mut w = 0;
                for (other, u) in ALL_VALUES.iter().enumerate() {
                    w |= encode(*u) << (BITS_PER_CELL * (other + 7));
                }
                w |= encode(v) << shift;
                let mask = if masked { 0b100 << shift } else { 0 };
                let out = word_weaken(w, mask);
                assert_eq!(decode(out >> shift), expect, "{v} masked={masked}");
                assert_eq!(out & !(CELL_MASK << shift), w & !(CELL_MASK << shift));
            }
        }
    }

    #[test]
    fn cell_slot_addresses_lanes() {
        assert_eq!(cell_slot(0), (0, 0));
        assert_eq!(cell_slot(20), (0, 60));
        assert_eq!(cell_slot(21), (1, 0));
        assert_eq!(cell_slot(45), (2, 9));
    }

    #[test]
    fn planes_tile_the_word() {
        assert_eq!(FORWARD_PLANE | BACKWARD_PLANE | MAYBE_PLANE, (1 << 63) - 1);
        assert_eq!(FORWARD_PLANE & BACKWARD_PLANE, 0);
        assert_eq!(FORWARD_PLANE.count_ones() as usize, CELLS_PER_WORD);
    }
}
