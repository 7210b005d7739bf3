//! Deck templates (compiled in from `decks/`) and their seeded
//! instances: the program only ever sees the generated file.

use mrpic::core::config::RunConfig;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deck {
    UniformPlasma,
    LwfaWindowF32,
    MrHybrid,
}

impl Deck {
    pub fn name(self) -> &'static str {
        match self {
            Deck::UniformPlasma => "uniform_plasma",
            Deck::LwfaWindowF32 => "lwfa_window_f32",
            Deck::MrHybrid => "mr_hybrid",
        }
    }

    pub fn template(self) -> &'static str {
        match self {
            Deck::UniformPlasma => include_str!("../decks/uniform_plasma.json"),
            Deck::LwfaWindowF32 => include_str!("../decks/lwfa_window_f32.json"),
            Deck::MrHybrid => include_str!("../decks/mr_hybrid.json"),
        }
    }

    /// The template with `"seed"` set, as a validated config.
    pub fn config(self, seed: u64) -> Result<RunConfig, String> {
        let mut cfg = RunConfig::from_json(self.template())
            .map_err(|e| format!("deck template {}: {e}", self.name()))?;
        cfg.seed = seed;
        Ok(cfg)
    }

    /// Write the seeded deck into `dir` and return its path.
    pub fn generate(self, seed: u64, dir: &Path) -> Result<PathBuf, String> {
        let text = serde_json::to_string_pretty(&self.config(seed)?)
            .map_err(|e| format!("encode deck {}: {e}", self.name()))?;
        let path = dir.join(format!("{}.json", self.name()));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Parse a generated deck file (the library workloads' "program input").
pub fn load(path: &Path) -> Result<RunConfig, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read deck {}: {e}", path.display()))?;
    RunConfig::from_json(&text).map_err(|e| format!("deck {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_validates_and_takes_the_seed() {
        for deck in [Deck::UniformPlasma, Deck::LwfaWindowF32, Deck::MrHybrid] {
            let cfg = deck.config(7).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(cfg.validate(), Ok(()), "{}", deck.name());
            assert_eq!(cfg.seed, 7);
            // The generated text must survive the program's own parser.
            let text = serde_json::to_string_pretty(&cfg).unwrap();
            let back = RunConfig::from_json(&text).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(back.seed, 7);
            assert_eq!(back.cells, cfg.cells);
        }
    }

    #[test]
    fn missing_deck_file_is_an_error_not_a_panic() {
        let err = load(Path::new("no/such/deck.json")).unwrap_err();
        assert!(err.contains("read deck"), "{err}");
    }
}
