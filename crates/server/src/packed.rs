//! Bit-packed `u32` arrays: how a tier-2 entry stores its start times
//! and its cell → processor assignment.
//!
//! A schedule's start times all lie below its makespan and its
//! processor ids below `m`, so each array is stored at the bit width of
//! its own largest value — `⌈log₂ makespan⌉` bits a start,
//! `⌈log₂ m⌉` a processor — rather than at 32. The width is read from
//! the data; one code path covers every width from 0 (an all-zero
//! array, stored as no words at all) to 32.

/// A `u32` array packed at the bit width of its largest value: value
/// `i` occupies bits `i·width .. (i+1)·width` of the little-endian
/// concatenation of `words`, and may straddle two words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedU32 {
    words: Box<[u64]>,
    len: usize,
    width: usize,
}

impl PackedU32 {
    /// Packs `values` at the width of their maximum (0 when every value
    /// is zero or there are none).
    pub(crate) fn pack(values: &[u32]) -> PackedU32 {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (u32::BITS - max.leading_zeros()) as usize;
        let mut words = vec![0u64; (values.len() * width).div_ceil(64)].into_boxed_slice();
        if width > 0 {
            for (i, &v) in values.iter().enumerate() {
                let (word, offset) = (i * width / 64, i * width % 64);
                words[word] |= u64::from(v) << offset;
                if offset + width > 64 {
                    words[word + 1] |= u64::from(v) >> (64 - offset);
                }
            }
        }
        PackedU32 {
            words,
            len: values.len(),
            width,
        }
    }

    /// The values as they were packed.
    pub(crate) fn unpack(&self) -> Vec<u32> {
        let width = self.width;
        if width == 0 {
            return vec![0; self.len];
        }
        let mask = (1u64 << width) - 1;
        (0..self.len)
            .map(|i| {
                let (word, offset) = (i * width / 64, i * width % 64);
                let mut bits = self.words[word] >> offset;
                if offset + width > 64 {
                    bits |= self.words[word + 1] << (64 - offset);
                }
                (bits & mask) as u32
            })
            .collect()
    }

    /// Bits each value takes: those of the largest value packed.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Bytes the packed words own on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest value of `width` bits.
    fn width_max(width: usize) -> u32 {
        ((1u64 << width) - 1) as u32
    }

    /// Values of exactly `width` bits (the width's maximum among them)
    /// and below, deterministic in `len` and `width`.
    fn values(len: usize, width: usize) -> Vec<u32> {
        let max = width_max(width);
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ ((len as u64) << 8) ^ width as u64;
        (0..len)
            .map(|i| {
                if i % 7 == 3 {
                    return max;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x as u32) & max
            })
            .collect()
    }

    #[test]
    fn round_trips_at_every_width_and_length() {
        for width in 0..=32 {
            for len in [0, 1, 63, 64, 65, 1000] {
                let mut v = values(len, width);
                if let Some(last) = v.last_mut() {
                    // The width's maximum, at the end where a value
                    // straddling the last word boundary would be cut.
                    *last = width_max(width);
                }
                let packed = PackedU32::pack(&v);
                assert_eq!(packed.unpack(), v, "width {width}, len {len}");
                let want_width = if len == 0 { 0 } else { width };
                assert_eq!(packed.width(), want_width, "len {len}");
                assert_eq!(packed.heap_bytes(), (len * want_width).div_ceil(64) * 8);
            }
        }
    }

    #[test]
    fn all_zero_arrays_take_no_words() {
        for len in [0, 1, 63, 64, 65, 1000] {
            let packed = PackedU32::pack(&vec![0; len]);
            assert_eq!((packed.width(), packed.heap_bytes()), (0, 0));
            assert_eq!(packed.unpack(), vec![0; len]);
        }
    }

    #[test]
    fn width_is_the_bits_of_the_largest_value() {
        for (v, width) in [
            (&[1, 0][..], 1),
            (&[2, 3, 1], 2),
            (&[1023, 5], 10),
            (&[1024], 11),
            (&[0, u32::MAX], 32),
        ] {
            assert_eq!(PackedU32::pack(v).width(), width, "{v:?}");
        }
    }
}
