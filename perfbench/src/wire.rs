//! Codec timing: `frame::encode` and `FrameDecoder` over a sample of the
//! messages a run really sent.

use arm_proto::{Envelope, Message, TraceCtx};
use arm_util::NodeId;
use arm_wire::{encode, FrameDecoder, WirePayload};
use std::time::Instant;

/// Passes over the sample; the median pass is reported.
const PASSES: usize = 5;

/// Encode and decode ns per frame byte over `sample` (median of
/// [`PASSES`]). Every frame must decode back to the message sent.
pub fn codec_ns_per_byte(
    sample: &[(NodeId, NodeId, Message, TraceCtx)],
) -> Result<(f64, f64), String> {
    if sample.is_empty() {
        return Ok((0.0, 0.0));
    }
    let payloads: Vec<WirePayload> = sample
        .iter()
        .map(|(from, to, msg, ctx)| {
            WirePayload::Envelope(Envelope {
                from: *from,
                to: *to,
                trace: *ctx,
                msg: msg.clone(),
            })
        })
        .collect();
    let mut enc = Vec::with_capacity(PASSES);
    let mut dec = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = payloads.iter().map(encode).collect();
        let encode_s = t.elapsed().as_secs_f64();
        let stream: Vec<u8> = frames.concat();

        let t = Instant::now();
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        let mut decoded = Vec::with_capacity(payloads.len());
        while let Some(frame) = decoder.next_frame().map_err(|e| format!("decode: {e:?}"))? {
            decoded.push(frame);
        }
        let decode_s = t.elapsed().as_secs_f64();
        if decoded != payloads {
            return Err(format!(
                "codec round trip changed the sample ({} frames in, {} out)",
                payloads.len(),
                decoded.len()
            ));
        }
        let bytes = stream.len() as f64;
        enc.push(encode_s * 1e9 / bytes);
        dec.push(decode_s * 1e9 / bytes);
    }
    Ok((
        crate::stats::median(&mut enc),
        crate::stats::median(&mut dec),
    ))
}
