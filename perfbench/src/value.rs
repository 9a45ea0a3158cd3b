//! Keys, self-describing values and the seeded random stream.
//!
//! Keys are the paper's 16-byte decimal integers (byte order equals
//! numeric order). Every value is 100 bytes and names the key it belongs
//! to and the write that produced it, so the verifier can check any
//! response without a copy of the store:
//!
//! | bytes    | content                                             |
//! |----------|-----------------------------------------------------|
//! | 0..16    | the key                                             |
//! | 16..24   | write version, little endian                        |
//! | 24..50   | pseudo-random filler derived from (key, version)    |
//! | 50..100  | a repeating phrase (the compressible half)          |
//!
//! Half of each value comes from the repeating phrase, which gives the
//! paper's 0.5 compressibility. Because the filler is derived from the
//! key and version, a value is valid only if it equals
//! `encode(key, version)` byte for byte; any tampering shows.

pub const KEY_LEN: usize = 16;
pub const VALUE_LEN: usize = 100;
const FILLER: std::ops::Range<usize> = 24..50;
const PHRASE: &[u8] = b"pipelined-compaction-";

/// A write version: the stream that issued it and the write's index in
/// that stream. Stream 0 is the set-up load; streams 1 and up are client
/// connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Version {
    pub stream: u16,
    pub index: u64,
}

impl Version {
    fn to_u64(self) -> u64 {
        (u64::from(self.stream) << 40) | (self.index + 1)
    }

    fn from_u64(v: u64) -> Option<Version> {
        let index = (v & ((1 << 40) - 1)).checked_sub(1)?;
        let stream = u16::try_from(v >> 40).ok()?;
        Some(Version { stream, index })
    }
}

/// The 16-byte key for index `idx`.
pub fn key(idx: u64) -> [u8; KEY_LEN] {
    let mut out = [b'0'; KEY_LEN];
    let mut v = idx;
    for slot in out.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out
}

/// The index a 16-byte decimal key encodes.
pub fn key_index(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN {
        return None;
    }
    key.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// The value written for `key` by write `version`.
pub fn encode(key: &[u8; KEY_LEN], version: Version) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    out[..KEY_LEN].copy_from_slice(key);
    out[KEY_LEN..FILLER.start].copy_from_slice(&version.to_u64().to_le_bytes());
    let mut rng =
        Rng::new(u64::from_le_bytes(key[8..].try_into().expect("8 bytes")) ^ version.to_u64());
    for chunk in out[FILLER].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    for (i, b) in out[FILLER.end..].iter_mut().enumerate() {
        *b = PHRASE[i % PHRASE.len()];
    }
    out
}

/// Why a value failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BadValue {
    Length(usize),
    WrongKey,
    BadVersion,
    Tampered,
}

/// Checks that `value` is a well-formed value of `key` and returns the
/// version it carries.
pub fn decode(key: &[u8], value: &[u8]) -> Result<Version, BadValue> {
    if value.len() != VALUE_LEN {
        return Err(BadValue::Length(value.len()));
    }
    if key.len() != KEY_LEN || value[..KEY_LEN] != *key {
        return Err(BadValue::WrongKey);
    }
    let raw = u64::from_le_bytes(value[KEY_LEN..FILLER.start].try_into().expect("8 bytes"));
    let version = Version::from_u64(raw).ok_or(BadValue::BadVersion)?;
    let key: &[u8; KEY_LEN] = key.try_into().expect("checked length");
    if encode(key, version)[..] != *value {
        return Err(BadValue::Tampered);
    }
    Ok(version)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut out: Vec<u32> = (0..n).collect();
        for i in (1..out.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            out.swap(i, j);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrips_for_every_stream() {
        for (idx, stream, index) in [(0, 0, 0), (42, 1, 7), (999_999, 2, (1 << 40) - 2)] {
            let k = key(idx);
            assert_eq!(key_index(&k), Some(idx));
            let v = Version { stream, index };
            assert_eq!(decode(&k, &encode(&k, v)), Ok(v));
        }
    }

    #[test]
    fn tampered_values_are_rejected() {
        let k = key(1234);
        let good = encode(
            &k,
            Version {
                stream: 1,
                index: 5,
            },
        );
        for pos in [0, 17, 30, 60, 99] {
            let mut bad = good;
            bad[pos] ^= 1;
            assert!(
                decode(&k, &bad).is_err(),
                "flip at byte {pos} went unnoticed"
            );
        }
        assert_eq!(decode(&key(1235), &good), Err(BadValue::WrongKey));
        assert_eq!(decode(&k, &good[..99]), Err(BadValue::Length(99)));
        // A value of another version with this key's bytes spliced in.
        let mut spliced = encode(
            &k,
            Version {
                stream: 2,
                index: 5,
            },
        );
        spliced[KEY_LEN..24].copy_from_slice(&good[KEY_LEN..24]);
        assert_eq!(decode(&k, &spliced), Err(BadValue::Tampered));
    }

    #[test]
    fn half_of_each_value_is_the_phrase() {
        let v = encode(
            &key(7),
            Version {
                stream: 0,
                index: 0,
            },
        );
        assert_eq!(VALUE_LEN - FILLER.end, VALUE_LEN / 2);
        assert!(v[FILLER.end..].starts_with(PHRASE));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(9).permutation(1000);
        assert_eq!(a, Rng::new(9).permutation(1000));
        assert_ne!(a, Rng::new(10).permutation(1000));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }
}
