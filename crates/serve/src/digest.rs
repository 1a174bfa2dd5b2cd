//! Content addressing for campaign requests: an in-tree SHA-256 and
//! the canonical request-digest construction both cache layers key on.
//!
//! # The cache key, precisely
//!
//! Two campaign requests share a result-cache entry exactly when their
//! [`request_digest`] inputs match:
//!
//! 1. **Canonical deck bytes** — the deck parsed and written back
//!    through the exact round-trip writer
//!    ([`castg_netlist::canonical_deck_bytes`]), which erases
//!    whitespace, comments, continuations, `.param` indirection and
//!    number formatting while preserving node interning order, device
//!    order, bit-exact values and identifier spellings (net-name case
//!    is *semantic*: fault names in the report body carry the deck's
//!    first spelling of each net, so decks differing only in case
//!    produce different report bytes and must not share an entry).
//!    Decks the writer cannot represent (flattened `.subckt`
//!    internals) fall back to their raw bytes, losing only the
//!    formatting normalization, never soundness.
//! 2. **Sorted config texts** — the request's configuration
//!    descriptions, lexicographically sorted. The server assigns config
//!    ids *after* the same sort (see [`sort_configs`]), so reordering
//!    the `configs` array changes neither the digest nor the report.
//! 3. **Resolved parameter table** — `(name, value-bits)` pairs sorted
//!    by name. (Canonical deck bytes already embed resolved values;
//!    the table keeps the raw-fallback path keyed correctly too.)
//! 4. **Dictionary derivation** — mode, bridge/pinhole resistances,
//!    skip/max fault slicing.
//! 5. **Solver options** — the forced solver/ordering pair, if any.
//! 6. **Budget options** — `max_newton_iters` and `budget_ms`, which
//!    change typed outcomes and therefore report bytes.
//! 7. **The macro name** — it appears verbatim in the report body.
//!
//! Thread counts are deliberately **excluded**: campaign reports are
//! bit-identical at any worker count, so requests differing only in
//! parallelism share cache entries.
//!
//! Every field is fed domain-separated (tag + length prefix), so no
//! concatenation of fields can collide with another split of the same
//! bytes.

use castg_faults::BridgeDerivation;
use castg_spice::{OrderingKind, SolverKind};

/// A 256-bit content digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Incremental SHA-256 (FIPS 180-4). Pure Rust, no tables beyond the
/// round constants; the build image has no registry, so the hash lives
/// in-tree like everything else.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the standard IV.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
                0x1f83d9ab, 0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// Feeds bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (chunk, s) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Lower-hex rendering of a digest.
pub fn hex(d: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in d {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// The request options that participate in the digest (everything
/// beyond deck + configs + params). The server fills every field from
/// the request, with the fault cap and the budgets clamped to its
/// ceilings (`Some(ceiling)` when the request names none), so no served
/// `X-Castg-Digest` is built from [`Default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestOptions {
    /// Bridge-derivation mode of the derived dictionary.
    pub derivation: BridgeDerivation,
    /// Dictionary bridge resistance (ohms).
    pub bridge_ohms: f64,
    /// Dictionary pinhole resistance (ohms).
    pub pinhole_ohms: f64,
    /// Faults skipped off the front of the derived dictionary.
    pub skip_faults: usize,
    /// Dictionary truncation after the skip (`usize::MAX` = none).
    pub max_faults: Option<usize>,
    /// Forced solver/ordering pair (`None` = Auto/Auto heuristics).
    pub dispatch: Option<(SolverKind, OrderingKind)>,
    /// Per-item Newton-iteration allowance, post-clamping.
    pub max_newton_iters: Option<usize>,
    /// Per-item wall-clock budget (ms), post-clamping.
    pub budget_ms: Option<u64>,
}

/// The derived-dictionary defaults (exhaustive bridges at 10 kΩ,
/// pinholes at 2 kΩ) with no skip, no cap, no forced dispatch and no
/// budgets: a baseline for tests that vary one field at a time.
impl Default for DigestOptions {
    fn default() -> Self {
        DigestOptions {
            derivation: BridgeDerivation::Exhaustive,
            bridge_ohms: 10e3,
            pinhole_ohms: 2e3,
            skip_faults: 0,
            max_faults: None,
            dispatch: None,
            max_newton_iters: None,
            budget_ms: None,
        }
    }
}

/// Sorts config texts into the canonical (lexicographic) order the
/// server assigns ids in. Both the digest and the pipeline consume
/// configs in this order, which is what makes the digest sound under
/// request-side reordering.
pub fn sort_configs(configs: &mut [String]) {
    configs.sort();
}

/// Builds the canonical request digest. `name` is the macro name (it
/// appears in the report body, so it is part of the key);
/// `canonical_deck` is the round-trip-normalized deck bytes (or the
/// raw deck text when the writer reported it unrepresentable);
/// `configs` must already be in canonical order ([`sort_configs`]);
/// `params` is the resolved parameter table, sorted here by name.
pub fn request_digest(
    name: &str,
    canonical_deck: &[u8],
    configs: &[String],
    params: &[(String, f64)],
    options: &DigestOptions,
) -> Digest {
    let mut h = Sha256::new();
    let mut field = |tag: &str, bytes: &[u8]| {
        h.update(tag.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    field("name", name.as_bytes());
    field("deck", canonical_deck);
    field("nconfigs", &(configs.len() as u64).to_le_bytes());
    for cfg in configs {
        field("config", cfg.as_bytes());
    }
    let mut sorted_params: Vec<&(String, f64)> = params.iter().collect();
    sorted_params.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, value) in sorted_params {
        field("param", name.as_bytes());
        field("value", &value.to_bits().to_le_bytes());
    }
    let derivation = match options.derivation {
        BridgeDerivation::Exhaustive => b"exhaustive".as_slice(),
        BridgeDerivation::Adjacent => b"adjacent".as_slice(),
    };
    field("derivation", derivation);
    field("bridge_ohms", &options.bridge_ohms.to_bits().to_le_bytes());
    field("pinhole_ohms", &options.pinhole_ohms.to_bits().to_le_bytes());
    field("skip_faults", &(options.skip_faults as u64).to_le_bytes());
    field(
        "max_faults",
        &(options.max_faults.map(|v| v as u64).unwrap_or(u64::MAX)).to_le_bytes(),
    );
    let dispatch = match options.dispatch {
        None => "auto".to_string(),
        Some((solver, ordering)) => format!("{solver:?}/{ordering:?}"),
    };
    field("dispatch", dispatch.as_bytes());
    field(
        "max_newton_iters",
        &(options.max_newton_iters.map(|v| v as u64).unwrap_or(u64::MAX)).to_le_bytes(),
    );
    field(
        "budget_ms",
        &options.budget_ms.unwrap_or(u64::MAX).to_le_bytes(),
    );
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 test vectors.
    #[test]
    fn sha256_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a' — exercises the multi-block + buffered path
        // (unaligned 100-byte updates straddle block boundaries).
        let mut h = Sha256::new();
        let chunk = [b'a'; 100];
        for _ in 0..10_000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn digest_separates_fields() {
        let base = request_digest("m", b"deck", &[], &[], &DigestOptions::default());
        // Moving bytes between fields must change the digest.
        let shifted = request_digest("m", b"dec", &["k".into()], &[], &DigestOptions::default());
        assert_ne!(base, shifted);
        // The macro name appears in the report, so it is in the key.
        assert_ne!(base, request_digest("n", b"deck", &[], &[], &DigestOptions::default()));
        // Any option flip changes it too.
        let opts = DigestOptions { skip_faults: 1, ..DigestOptions::default() };
        assert_ne!(base, request_digest("m", b"deck", &[], &[], &opts));
        let opts = DigestOptions { max_newton_iters: Some(7), ..DigestOptions::default() };
        assert_ne!(base, request_digest("m", b"deck", &[], &[], &opts));
    }

    #[test]
    fn digest_ignores_param_order() {
        let a = [("x".to_string(), 1.0), ("y".to_string(), 2.0)];
        let b = [("y".to_string(), 2.0), ("x".to_string(), 1.0)];
        assert_eq!(
            request_digest("m", b"d", &[], &a, &DigestOptions::default()),
            request_digest("m", b"d", &[], &b, &DigestOptions::default()),
        );
    }
}
