//! A minimal value-change-dump (VCD) style recorder.
//!
//! Useful for inspecting bus waveforms from the RTL reference model in any
//! VCD viewer. The recorder is deliberately simple: scalar and vector
//! channels, explicit sampling (typically once per half-cycle), text output
//! via [`TraceRecorder::to_vcd`].

use crate::time::SimTime;
use std::fmt::Write as _;

/// Identifies a channel registered with [`TraceRecorder::add_channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(usize);

#[derive(Debug, Clone)]
struct Channel {
    name: String,
    width: u32,
    /// (time, value) pairs, recorded only on change.
    changes: Vec<(SimTime, u64)>,
    last: Option<u64>,
}

/// Records named signal values over time and serialises them as VCD.
///
/// ```
/// use hierbus_sim::{trace::TraceRecorder, SimTime};
/// let mut rec = TraceRecorder::new("1ns");
/// let clk = rec.add_channel("clk", 1);
/// rec.sample(SimTime::ZERO, clk, 0);
/// rec.sample(SimTime::from_ticks(5), clk, 1);
/// let vcd = rec.to_vcd();
/// assert!(vcd.contains("$var"));
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    timescale: String,
    channels: Vec<Channel>,
}

impl TraceRecorder {
    /// Creates a recorder; `timescale` is the VCD timescale string, e.g.
    /// `"1ns"`.
    pub fn new(timescale: &str) -> Self {
        TraceRecorder {
            timescale: timescale.to_owned(),
            channels: Vec::new(),
        }
    }

    /// Registers a channel of the given bit width (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn add_channel(&mut self, name: &str, width: u32) -> ChannelId {
        assert!(
            (1..=64).contains(&width),
            "channel width {width} out of 1..=64"
        );
        let id = ChannelId(self.channels.len());
        self.channels.push(Channel {
            name: name.to_owned(),
            width,
            changes: Vec::new(),
            last: None,
        });
        id
    }

    /// Records `value` on `channel` at `time`; consecutive identical values
    /// are stored once.
    pub fn sample(&mut self, time: SimTime, channel: ChannelId, value: u64) {
        let ch = &mut self.channels[channel.0];
        if ch.last != Some(value) {
            ch.changes.push((time, value));
            ch.last = Some(value);
        }
    }

    /// Number of recorded change points across all channels.
    pub fn change_count(&self) -> usize {
        self.channels.iter().map(|c| c.changes.len()).sum()
    }

    /// Serialises the recording as a VCD document.
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$timescale {} $end", self.timescale);
        let _ = writeln!(out, "$scope module hierbus $end");
        for (i, ch) in self.channels.iter().enumerate() {
            let code = Self::id_code(i);
            let _ = writeln!(out, "$var wire {} {} {} $end", ch.width, code, ch.name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Initial-value dump: every channel starts unknown until its
        // first sample. Some viewers reject files whose first `#time`
        // section references an identifier never dumped before, so the
        // block must cover all channels.
        let _ = writeln!(out, "$dumpvars");
        for (i, ch) in self.channels.iter().enumerate() {
            let code = Self::id_code(i);
            if ch.width == 1 {
                let _ = writeln!(out, "x{code}");
            } else {
                let _ = writeln!(out, "bx {code}");
            }
        }
        let _ = writeln!(out, "$end");

        // Merge-sort all change points by time (stable by channel order).
        let mut points: Vec<(SimTime, usize, u64)> = Vec::new();
        for (i, ch) in self.channels.iter().enumerate() {
            for &(t, v) in &ch.changes {
                points.push((t, i, v));
            }
        }
        points.sort_by_key(|&(t, i, _)| (t, i));

        let mut current: Option<SimTime> = None;
        for (t, i, v) in points {
            if current != Some(t) {
                let _ = writeln!(out, "#{}", t.ticks());
                current = Some(t);
            }
            let code = Self::id_code(i);
            if self.channels[i].width == 1 {
                let _ = writeln!(out, "{}{}", v & 1, code);
            } else {
                let _ = writeln!(out, "b{:b} {}", v, code);
            }
        }
        out
    }

    fn id_code(index: usize) -> String {
        // VCD identifier codes: printable ASCII 33..=126, base-94.
        let mut n = index;
        let mut code = String::new();
        loop {
            code.push((33 + (n % 94)) as u8 as char);
            n /= 94;
            if n == 0 {
                break;
            }
            n -= 1;
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupes_consecutive_values() {
        let mut rec = TraceRecorder::new("1ns");
        let ch = rec.add_channel("sig", 1);
        rec.sample(SimTime::from_ticks(0), ch, 1);
        rec.sample(SimTime::from_ticks(1), ch, 1);
        rec.sample(SimTime::from_ticks(2), ch, 0);
        assert_eq!(rec.change_count(), 2);
    }

    #[test]
    fn vcd_contains_header_and_changes() {
        let mut rec = TraceRecorder::new("1ns");
        let clk = rec.add_channel("clk", 1);
        let bus = rec.add_channel("addr", 36);
        rec.sample(SimTime::ZERO, clk, 0);
        rec.sample(SimTime::ZERO, bus, 0xA5);
        rec.sample(SimTime::from_ticks(5), clk, 1);
        let vcd = rec.to_vcd();
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$var wire 1 ! clk $end"));
        assert!(vcd.contains("$var wire 36 \" addr $end"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#5"));
        assert!(vcd.contains("b10100101 \""));
    }

    #[test]
    fn vcd_emits_initial_dumpvars_block_for_every_channel() {
        let mut rec = TraceRecorder::new("1ns");
        let _clk = rec.add_channel("clk", 1);
        let _bus = rec.add_channel("addr", 36);
        // A channel with no sample before the first time stamp must
        // still appear in the initial dump.
        rec.sample(SimTime::from_ticks(7), _clk, 1);
        let vcd = rec.to_vcd();
        let dump_start = vcd.find("$dumpvars").expect("has $dumpvars");
        let defs_end = vcd.find("$enddefinitions $end").unwrap();
        let first_stamp = vcd.find("#7").unwrap();
        assert!(defs_end < dump_start && dump_start < first_stamp);
        let block = &vcd[dump_start..vcd[dump_start..].find("$end").unwrap() + dump_start];
        assert!(block.contains("x!"), "scalar unknown: {block}");
        assert!(block.contains("bx \""), "vector unknown: {block}");
    }

    #[test]
    fn id_codes_are_unique_for_many_channels() {
        let codes: Vec<String> = (0..200).map(TraceRecorder::id_code).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }
}
