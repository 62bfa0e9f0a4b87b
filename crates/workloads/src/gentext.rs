//! Adversarial module text for the tokenization oracles: names and tags
//! built from case variants, non-ASCII letters whose lowercase differs in
//! length or depends on context (`İ`, `ẞ`, final `Σ`, the Kelvin sign),
//! digits and repeated tokens, cut by punctuation runs, doubled spaces and
//! underscores. The keyword index's build oracle and the ranked read's
//! posting-profile oracle both draw from it, so one corpus of awkward text
//! holds the index and the profiles derived from it to the same standard.

use ppwf_model::fixtures;
use ppwf_model::ids::ModuleId;
use ppwf_model::spec::Specification;

/// Word pieces for generated text.
pub const PIECES: &[&str] = &[
    "query", "Query", "QUERY", "risks", "Risks", "db", "É", "é", "Étude", "ß", "ẞ", "SS", "Straße",
    "İ", "i̇", "Σ", "ΣΑΣ", "σας", "\u{212A}", "k", "x1", "42",
];

/// Separators: single spaces (an already normal tag), punctuation runs,
/// doubled spaces, underscores.
pub const SEPS: &[&str] = &[" ", " ", "  ", "-", "--", ", ", "...", "!?", "_", "/"];

/// A deterministic text generator (splitmix64 over the seed).
pub struct TextGen(pub u64);

impl TextGen {
    /// A number in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// One of `from` (non-empty).
    pub fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// Up to four pieces, a piece often repeated, sometimes wrapped in
    /// punctuation; empty and punctuation-only texts included.
    pub fn text(&mut self) -> String {
        let mut text = String::new();
        match self.below(8) {
            0 => return text,
            1 => return "--, ".to_string(),
            2 => text.push_str(self.pick(&["(", ", ", " "])),
            _ => {}
        }
        let mut last = self.pick(PIECES);
        for i in 0..1 + self.below(4) {
            if i > 0 {
                text.push_str(self.pick(SEPS));
                if self.below(3) > 0 {
                    last = self.pick(PIECES);
                }
            }
            text.push_str(last);
        }
        if self.below(5) == 0 {
            text.push_str(self.pick(&[")", "!", " "]));
        }
        text
    }

    /// A module text: a name, and up to three tags, one sometimes
    /// repeated.
    pub fn module_text(&mut self) -> (String, Vec<String>) {
        let name = self.text();
        let mut tags: Vec<String> = (0..self.below(4)).map(|_| self.text()).collect();
        if !tags.is_empty() && self.below(4) == 0 {
            tags.push(tags[0].clone());
        }
        (name, tags)
    }

    /// The paper's fixture, every proper module retexted.
    pub fn spec(&mut self) -> Specification {
        let (mut spec, _) = fixtures::disease_susceptibility();
        for m in proper_modules(&spec) {
            let (name, tags) = self.module_text();
            spec.set_module_text(m, &name, &tags).expect("a proper fixture module takes any text");
        }
        spec
    }
}

/// The proper (indexed) modules of `spec`: every module but the
/// distinguished input and output.
pub fn proper_modules(spec: &Specification) -> Vec<ModuleId> {
    spec.modules().filter(|m| !m.kind.is_distinguished()).map(|m| m.id).collect()
}
