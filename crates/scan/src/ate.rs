//! ATE (automatic test equipment) channel and cycle accounting.

use crate::config::ScanConfig;

/// Tester configuration: how many channels stream data to the chip.
///
/// The paper's experiments use 32 tester channels. Control bits (mask
/// words, selective-XOR selects) are streamed over these channels, so the
/// cycle cost of a control-bit volume is `ceil(bits / channels)`.
///
/// # Examples
///
/// ```
/// use xhc_scan::AteConfig;
///
/// let ate = AteConfig::new(32);
/// assert_eq!(ate.transfer_cycles(64), 2);
/// assert_eq!(ate.transfer_cycles(65), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AteConfig {
    channels: usize,
}

impl AteConfig {
    /// A tester with `channels` parallel channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "need at least one tester channel");
        AteConfig { channels }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Cycles needed to stream `bits` control bits.
    pub fn transfer_cycles(&self, bits: usize) -> usize {
        bits.div_ceil(self.channels)
    }

    /// Baseline scan test cycles for `num_patterns` patterns on `config`:
    /// one shift cycle per cell of the longest chain per pattern, plus one
    /// capture cycle per pattern, plus the final unload.
    pub fn scan_cycles(&self, config: &ScanConfig, num_patterns: usize) -> usize {
        let pattern_cycles = config.max_chain_len() + 1;
        num_patterns * pattern_cycles + config.max_chain_len()
    }
}

impl Default for AteConfig {
    /// The paper's 32-channel tester.
    fn default() -> Self {
        AteConfig::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cycles_round_up() {
        let ate = AteConfig::new(32);
        assert_eq!(ate.transfer_cycles(0), 0);
        assert_eq!(ate.transfer_cycles(1), 1);
        assert_eq!(ate.transfer_cycles(32), 1);
        assert_eq!(ate.transfer_cycles(33), 2);
    }

    #[test]
    fn default_is_paper_config() {
        assert_eq!(AteConfig::default().channels(), 32);
    }

    #[test]
    fn scan_cycles_formula() {
        let cfg = ScanConfig::uniform(5, 3);
        let ate = AteConfig::default();
        // 8 patterns: 8 * (3 shift + 1 capture) + 3 final unload.
        assert_eq!(ate.scan_cycles(&cfg, 8), 8 * 4 + 3);
    }

    #[test]
    #[should_panic(expected = "at least one tester channel")]
    fn zero_channels_panics() {
        AteConfig::new(0);
    }
}
