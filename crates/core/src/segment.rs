//! The object format: 256-byte segments, each with its own Adler32.
//!
//! An object of `size` user bytes is `n = ⌈size / 256⌉` (at least one)
//! **segments**; segment `k` covers user bytes `[256·k, min(256·(k+1),
//! size))` and has its own Adler32. Segment 0's sum is the header's `csum`
//! field, so an object of 256 bytes or less is stored exactly as a
//! one-sum-per-object format would store it. Segments `1..n` keep a `u32`
//! each in the **sum table**, right after the user bytes in the same
//! allocation — covered by the same parity rows, redo log entries and
//! storage extent as the data:
//!
//! ```text
//! header (16) | user bytes [0, size) | pad to 4 | sum[n-1] … sum[2] sum[1]
//! ```
//!
//! The table lists its entries in *descending* segment order, so the last
//! segment's entry sits right behind the last user byte: a write into an
//! object's tail and the sum it changes are one contiguous span on media,
//! exactly as a write at offset 0 and the header in front of it are.
//! Entries are 4-byte aligned (and allocation blocks are 8-byte multiples),
//! so every entry lies inside one aligned 8-byte word — the unit the
//! detectable CAS ([`crate::ploc`]) folds its checksum delta into.
//!
//! Loading a range means loading the segments it covers and checking each
//! against its sum ([`check`]); the verification cache ([`crate::vcache`])
//! remembers verified segments, not objects.

use pgl_pmemobj::ObjectHeader;

use crate::checksum::adler32;

/// Bytes per segment.
pub const SEG: u64 = 256;

/// Bytes per sum-table entry.
pub const ENTRY: u64 = 4;

/// Number of segments of a `size`-byte object (at least one).
#[inline]
pub fn count(size: u64) -> u64 {
    size.div_ceil(SEG).max(1)
}

/// Offset of the sum table, relative to the object's user data.
#[inline]
pub fn table_off(size: u64) -> u64 {
    size.next_multiple_of(ENTRY)
}

/// Offset of segment `k`'s table entry (`1 ≤ k < count(size)`), relative
/// to the object's user data.
#[inline]
pub fn entry_off(size: u64, k: u64) -> u64 {
    debug_assert!(k >= 1 && k < count(size), "segment {k} has no table entry");
    table_off(size) + ENTRY * (count(size) - 1 - k)
}

/// Bytes of user data plus sum table: what an object occupies behind its
/// header.
#[inline]
pub fn footprint(size: u64) -> u64 {
    match count(size) {
        1 => size,
        n => table_off(size) + ENTRY * (n - 1),
    }
}

/// `[start, end)` of segment `k`'s user bytes.
#[inline]
pub fn bounds(size: u64, k: u64) -> (u64, u64) {
    (k * SEG, ((k + 1) * SEG).min(size))
}

/// First and last segment of the non-empty range `[off, off+len)`.
#[inline]
pub fn covering(off: u64, len: u64) -> (u64, u64) {
    debug_assert!(len > 0);
    (off / SEG, (off + len - 1) / SEG)
}

/// `(offset, length)` of the table entries of segments `k0..=k1`
/// (`k0 ≥ 1`), relative to the user data: one contiguous run, entry `k1`
/// first.
#[inline]
pub fn entries(size: u64, k0: u64, k1: u64) -> (u64, u64) {
    (entry_off(size, k1), ENTRY * (k1 - k0 + 1))
}

/// Segment `k`'s sum from `table`, the entries of segments `k0..=k1` as
/// [`entries`] lays them out (`k0 ≤ k ≤ k1`).
#[inline]
pub fn entry_in(table: &[u8], k1: u64, k: u64) -> u32 {
    let at = (ENTRY * (k1 - k)) as usize;
    u32::from_le_bytes(table[at..at + 4].try_into().expect("4-byte entry"))
}

/// The one verification function: checks segments `k0..=k1` of the object
/// whose header is `hdr`. `data` holds their user bytes (from `256·k0`),
/// `table` the entries of segments `max(k0, 1)..=k1` as [`entries`] lays
/// them out (empty when `k1 == 0`). Returns the first segment whose bytes
/// do not match its sum.
pub fn check(hdr: &ObjectHeader, k0: u64, k1: u64, data: &[u8], table: &[u8]) -> Result<(), u64> {
    let base = k0 * SEG;
    for k in k0..=k1 {
        let (s, e) = bounds(hdr.size, k);
        let want = if k == 0 { hdr.csum } else { entry_in(table, k1, k) };
        if adler32(&data[(s - base) as usize..(e - base) as usize]) != want {
            return Err(k);
        }
    }
    Ok(())
}

/// [`check`] over a whole object: `image` is its user bytes followed by the
/// pad and the table (`footprint(hdr.size)` bytes).
pub fn check_all(hdr: &ObjectHeader, image: &[u8]) -> Result<(), u64> {
    let n = count(hdr.size);
    let (user, rest) = image.split_at(hdr.size as usize);
    let table = if n > 1 { &rest[(table_off(hdr.size) - hdr.size) as usize..] } else { &[] };
    check(hdr, 0, n - 1, user, table)
}

/// `true` when segment `k` of the whole-object `image` (as [`check_all`]
/// takes it) matches its sum: the per-segment verdict object repair
/// classifies with.
pub fn segment_ok(hdr: &ObjectHeader, image: &[u8], k: u64) -> bool {
    let (s, e) = bounds(hdr.size, k);
    let table = if k == 0 {
        &[][..]
    } else {
        let at = entry_off(hdr.size, k) as usize;
        &image[at..at + ENTRY as usize]
    };
    check(hdr, k, k, &image[s as usize..e as usize], table).is_ok()
}

/// Computes every sum of the `user.len()`-byte object `user`: returns
/// segment 0's (the header's) and writes the others into `table` (the
/// object's `footprint − table_off` table bytes).
pub fn fill_table(user: &[u8], table: &mut [u8]) -> u32 {
    let size = user.len() as u64;
    let n = count(size);
    for k in 1..n {
        let (s, e) = bounds(size, k);
        let at = (ENTRY * (n - 1 - k)) as usize;
        table[at..at + 4].copy_from_slice(&adler32(&user[s as usize..e as usize]).to_le_bytes());
    }
    let (s, e) = bounds(size, 0);
    adler32(&user[s as usize..e as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_objects_have_no_table() {
        for size in [1, 8, 255, 256] {
            assert_eq!((count(size), footprint(size)), (1, size));
        }
        assert_eq!(count(257), 2);
    }

    #[test]
    fn table_sizes_of_the_paper_nodes() {
        // B-tree node: 304 B, two segments, one entry; 16 + 308 fits 328.
        assert_eq!((count(304), footprint(304)), (2, 308));
        // Radix-tree node: 4 136 B, 17 segments; 16 + 4 200 fits 4 224.
        assert_eq!((count(4136), footprint(4136)), (17, 4200));
        assert_eq!(entry_off(4136, 16), 4136, "the last segment's entry is adjacent");
        assert_eq!(entry_off(4136, 1), 4196);
        // An unaligned size pads its table to 4 bytes; a one-segment
        // object has neither.
        assert_eq!((table_off(301), footprint(301)), (304, 308));
        assert_eq!(footprint(93), 93);
        let hdr = ObjectHeader { size: 93, type_num: 1, csum: adler32(&[5; 93]) };
        assert_eq!(check_all(&hdr, &[5; 93]), Ok(()));
    }

    #[test]
    fn check_finds_the_bad_segment() {
        let user: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut image = user.clone();
        image.resize(footprint(1000) as usize, 0);
        let csum = fill_table(&user, &mut image[table_off(1000) as usize..]);
        let hdr = ObjectHeader { size: 1000, type_num: 1, csum };
        assert_eq!(check_all(&hdr, &image), Ok(()));
        // Segments 1..=2 alone, with their two entries.
        let (t, len) = entries(1000, 1, 2);
        let table = &image[t as usize..(t + len) as usize];
        assert_eq!(check(&hdr, 1, 2, &user[256..768], table), Ok(()));
        image[600] ^= 1;
        assert_eq!(check_all(&hdr, &image), Err(2));
        image[600] ^= 1;
        let last = entry_off(1000, 3) as usize;
        image[last] ^= 1; // a table entry, not its data
        assert_eq!(check_all(&hdr, &image), Err(3));
        let failing: Vec<u64> = (0..4).filter(|&k| !segment_ok(&hdr, &image, k)).collect();
        assert_eq!(failing, [3], "only the segment whose entry changed");
        image[10] ^= 1;
        let failing: Vec<u64> = (0..4).filter(|&k| !segment_ok(&hdr, &image, k)).collect();
        assert_eq!(failing, [0, 3]);
    }
}
