//! The run-record codec of the write-ahead log.
//!
//! One *record* is one executed instance with its evaluation — its dense
//! key, outcome and score, read from a borrowed [`RunRef`]; one *frame* is a
//! record's payload wrapped in a `[len: u32 LE][crc32(payload): u32 LE]`
//! header. See the crate docs for the full byte layout.

use crate::crc32::crc32;
use crate::PersistError;
use bugdoc_core::{EvalResult, Outcome, RunRef};

/// Upper bound on a frame payload. Real records are tens of bytes; anything
/// larger than this is read as corruption (a torn length field must not make
/// recovery attempt a multi-gigabyte allocation).
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Bytes of a frame header: payload length + payload CRC-32.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Why a frame payload could not be decoded (all variants read as
/// corruption by recovery: the log is truncated at the offending frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended mid-field.
    Truncated,
    /// An unknown kind/outcome/score tag byte.
    BadTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated mid-field"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
        }
    }
}

/// Appends a run's record payload bytes (no frame header) to `out`: the
/// dense key, outcome and score, read from the borrowed run. Fails with
/// [`PersistError::FrameOverflow`] — leaving partial bytes in `out`, which
/// the caller must discard — when the key's length does not fit the
/// format's `u32`: a truncated length would write a frame that decodes to a
/// *different* record or that replay refuses.
pub fn encode_payload(run: RunRef<'_>, out: &mut Vec<u8>) -> Result<(), PersistError> {
    let len = run.key.len();
    let count: u32 = len.try_into().map_err(|_| PersistError::FrameOverflow {
        field: "parameter count",
        len,
    })?;
    out.push(0); // kind: dense key
    out.push(match run.eval.outcome {
        Outcome::Succeed => 0,
        Outcome::Fail => 1,
    });
    match run.eval.score {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            out.extend_from_slice(&s.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(&count.to_le_bytes());
    for &idx in run.key {
        out.extend_from_slice(&idx.to_le_bytes());
    }
    Ok(())
}

/// Decodes a payload produced by [`encode_payload`]: the evaluation is
/// returned and the dense key written into `key`, which is cleared first
/// and reused across frames, so decoding allocates nothing once `key` has
/// grown to one key's length. The whole payload must be consumed —
/// trailing bytes are corruption. Any kind byte but 0 (a dense key) is
/// [`DecodeError::BadTag`].
pub fn decode_payload(payload: &[u8], key: &mut Vec<u32>) -> Result<EvalResult, DecodeError> {
    let mut r = Reader { buf: payload, pos: 0 };
    match r.u8()? {
        0 => {}
        t => return Err(DecodeError::BadTag(t)),
    }
    let outcome = match r.u8()? {
        0 => Outcome::Succeed,
        1 => Outcome::Fail,
        t => return Err(DecodeError::BadTag(t)),
    };
    let score = match r.u8()? {
        0 => None,
        1 => Some(f64::from_bits(r.u64()?)),
        t => return Err(DecodeError::BadTag(t)),
    };
    let count = r.u32()? as usize;
    if count > MAX_FRAME_BYTES / 4 {
        return Err(DecodeError::Truncated);
    }
    key.clear();
    for _ in 0..count {
        key.push(r.u32()?);
    }
    if r.pos != payload.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(EvalResult { outcome, score })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// `N` bytes as a fixed array; the narrowing `try_into` cannot fail
    /// (`bytes(N)` returned exactly `N` bytes) but is mapped rather than
    /// unwrapped — the decode path must be panic-free on arbitrary input.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.bytes(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

/// Reads a little-endian `u32` at `at`, `None` when out of bounds.
#[inline]
pub(crate) fn read_u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

/// Reads a little-endian `u64` at `at`, `None` when out of bounds.
#[inline]
pub(crate) fn read_u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let b = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// Appends one full frame (header + payload) for `run` to `out`.
/// Fails — restoring `out` to its incoming length — when the record cannot
/// be framed within the codec's bounds: a length field past `u32`, or a
/// payload past [`MAX_FRAME_BYTES`] (which replay reads as corruption, so
/// writing it would persist a frame recovery refuses).
pub fn append_frame(run: RunRef<'_>, out: &mut Vec<u8>) -> Result<(), PersistError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    if let Err(e) = encode_payload(run, out) {
        out.truncate(start);
        return Err(e);
    }
    let payload_len = out.len() - start - FRAME_HEADER_BYTES;
    let len: u32 = match payload_len.try_into() {
        Ok(n) if payload_len <= MAX_FRAME_BYTES => n,
        _ => {
            out.truncate(start);
            return Err(PersistError::FrameOverflow {
                field: "frame payload",
                len: payload_len,
            });
        }
    };
    // Backpatch the header reserved above, now that the payload bytes (and
    // their CRC) exist. The spans are in bounds by construction: `start + 8
    // <= out.len()` since the reservation, and nothing shrank `out`.
    // lint: allow(W003, reason = "header backpatch into the 8 bytes reserved at the top of this function; spans are in bounds by construction", scope = "block")
    {
        let crc = crc32(&out[start + FRAME_HEADER_BYTES..]);
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }
    Ok(())
}

/// The result of pulling one frame off a byte stream.
pub enum NextFrame {
    /// A whole, checksum-valid frame: the decoded evaluation (its key is in
    /// the caller's buffer) and the offset just past it.
    Frame(EvalResult, usize),
    /// Clean end of input (offset exactly at the end).
    End,
    /// The bytes at the offset are not a valid frame: short header, short
    /// payload, oversized length, CRC mismatch, or an undecodable payload.
    /// Recovery truncates here.
    Torn,
}

/// Reads the frame starting at `offset` in `bytes`, decoding its key into
/// `key` (see [`decode_payload`]).
pub fn next_frame(bytes: &[u8], offset: usize, key: &mut Vec<u32>) -> NextFrame {
    if offset == bytes.len() {
        return NextFrame::End;
    }
    let (Some(len), Some(crc)) = (
        read_u32_at(bytes, offset),
        read_u32_at(bytes, offset + 4),
    ) else {
        return NextFrame::Torn;
    };
    let len = len as usize;
    if len > MAX_FRAME_BYTES {
        return NextFrame::Torn;
    }
    let start = offset + FRAME_HEADER_BYTES;
    let Some(payload) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
        return NextFrame::Torn;
    };
    if crc32(payload) != crc {
        return NextFrame::Torn;
    }
    match decode_payload(payload, key) {
        Ok(eval) => NextFrame::Frame(eval, start + len),
        Err(_) => NextFrame::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(key: &[u32], outcome: Outcome, score: Option<f64>) -> RunRef<'_> {
        RunRef {
            key,
            eval: EvalResult { outcome, score },
        }
    }

    /// Frames `run` and reads it back: the evaluation and the key.
    fn roundtrip(run: RunRef<'_>) -> (EvalResult, Vec<u32>) {
        let mut bytes = Vec::new();
        append_frame(run, &mut bytes).unwrap();
        let mut key = vec![7; 5];
        match next_frame(&bytes, 0, &mut key) {
            NextFrame::Frame(eval, end) => {
                assert_eq!(end, bytes.len());
                (eval, key)
            }
            _ => panic!("frame did not read back"),
        }
    }

    #[test]
    fn dense_record_roundtrips() {
        let r = run(&[1, 2], Outcome::Fail, Some(0.25));
        assert_eq!(roundtrip(r), (r.eval, vec![1, 2]));
        let r = run(&[0, 1], Outcome::Succeed, None);
        assert_eq!(roundtrip(r), (r.eval, vec![0, 1]));
    }

    /// The key buffer is reused: a shorter key after a longer one leaves no
    /// trailing indices behind.
    #[test]
    fn key_buffer_is_cleared_between_frames() {
        let mut bytes = Vec::new();
        append_frame(run(&[3, 1, 4], Outcome::Fail, None), &mut bytes).unwrap();
        append_frame(run(&[2], Outcome::Succeed, Some(1.5)), &mut bytes).unwrap();
        let mut key = Vec::new();
        let NextFrame::Frame(_, next) = next_frame(&bytes, 0, &mut key) else {
            panic!("first frame")
        };
        assert_eq!(key, [3, 1, 4]);
        let NextFrame::Frame(eval, end) = next_frame(&bytes, next, &mut key) else {
            panic!("second frame")
        };
        assert_eq!((eval.score, key.as_slice(), end), (Some(1.5), &[2][..], bytes.len()));
    }

    /// Kind 1 (raw values, written by earlier versions for an instance
    /// outside its space) is an unknown tag: its payload does not decode,
    /// and a checksum-valid frame around it reads as damage.
    #[test]
    fn kind_one_payload_is_an_unknown_tag() {
        // kind 1, succeed, no score, one value: Int tag 1 + 8 bytes.
        let mut payload = vec![1, 0, 0];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&99i64.to_le_bytes());
        assert_eq!(
            decode_payload(&payload, &mut Vec::new()).unwrap_err(),
            DecodeError::BadTag(1)
        );
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(next_frame(&frame, 0, &mut Vec::new()), NextFrame::Torn));
    }

    /// A recorded run becomes a frame and comes back as the same run: its
    /// borrowed form (`RunRef::from`) is framed, and the decoded key builds
    /// the instance again.
    #[test]
    fn run_record_conversion_roundtrips() {
        let s = bugdoc_core::ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits"])
            .ordinal("Version", [1, 2, 3])
            .build();
        let run = bugdoc_core::Run {
            instance: s.instance_from_indices(&[0, 1]),
            eval: EvalResult::from_score_at_least(0.9, 0.6),
        };
        let (eval, key) = roundtrip(RunRef::from(&run));
        assert_eq!(key, [0, 1]);
        assert!(s.fits(&key));
        assert_eq!(RunRef { key: &key, eval }.to_run(&s), run);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = Vec::new();
        append_frame(run(&[1, 2], Outcome::Fail, Some(0.5)), &mut bytes).unwrap();
        let mut key = Vec::new();
        // Flip every byte in turn: the frame must never decode to a
        // *different* record without tripping the CRC.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            match next_frame(&corrupt, 0, &mut key) {
                NextFrame::Torn => {}
                NextFrame::Frame(got, _) => {
                    panic!("byte {i} flipped yet frame decoded as {got:?} {key:?}")
                }
                NextFrame::End => panic!("byte {i}: impossible End"),
            }
        }
        // Truncation at every prefix length is torn, except the empty tail.
        for cut in 1..bytes.len() {
            assert!(matches!(next_frame(&bytes[..cut], 0, &mut key), NextFrame::Torn));
        }
        assert!(matches!(next_frame(&bytes, bytes.len(), &mut key), NextFrame::End));
    }

    #[test]
    fn oversized_record_is_an_error_not_a_torn_frame() {
        // A payload past MAX_FRAME_BYTES must fail the append (replay would
        // read it as corruption), and the output buffer must be restored.
        let key = vec![0; MAX_FRAME_BYTES / 4 + 1];
        let mut bytes = vec![0xAA; 3];
        let err = append_frame(run(&key, Outcome::Fail, None), &mut bytes).unwrap_err();
        assert!(matches!(
            err,
            PersistError::FrameOverflow { field: "frame payload", .. }
        ));
        assert!(err.to_string().contains("cannot be framed"));
        assert_eq!(bytes, vec![0xAA; 3], "failed append left partial bytes");
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut payload = Vec::new();
        encode_payload(run(&[1], Outcome::Succeed, None), &mut payload).unwrap();
        payload.push(0);
        assert_eq!(
            decode_payload(&payload, &mut Vec::new()).unwrap_err(),
            DecodeError::Truncated
        );
    }
}
