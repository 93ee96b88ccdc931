//! The versioned, self-describing wire format.
//!
//! Everything that crosses a process boundary is wrapped in an
//! [`Envelope`]: a JSON object carrying the format name
//! ([`WIRE_FORMAT`]), the format version ([`WIRE_VERSION`]), the payload
//! kind (`"job"` or `"result"`) and the payload body. Decoding checks all
//! three before touching the body, so a worker from a different build
//! generation fails loudly instead of silently mis-reading bytes.
//!
//! The payload vocabulary:
//!
//! * [`WireInstance`] — a [`ProblemInstance`] as schema names, the value
//!   pool's strings in interning order, and the two snapshots as rows of
//!   pool indices. Decoding re-interns the strings in order, so symbol
//!   numbering on the worker is identical to the coordinator's pool at
//!   ship time — the precondition for merging results back with
//!   [`SymRemap`](affidavit_table::SymRemap).
//! * [`WireFunction`] / [`WireSegment`] — an
//!   [`AttrFunction`] with its interned parameters as raw pool indices
//!   and its exact numerics (`i128`, [`Decimal`]) as strings, since JSON
//!   numbers cannot carry them losslessly.
//! * [`WireConfig`] — an [`AffidavitConfig`] in its version-3 encoding.
//!
//! The format is covered by round-trip tests and a golden-bytes fixture
//! (`tests/properties_dist.rs`): accidental changes to field names, field
//! order or numeric encodings fail CI instead of stranding deployed
//! workers.

use affidavit_core::{AffidavitConfig, ProblemInstance};
use affidavit_functions::datetime::DateFormat;
use affidavit_functions::substring::{Segment, TokenProgram};
use affidavit_functions::{AttrFunction, ValueMap};
use affidavit_table::{Decimal, Rational, Schema, Sym, Table, ValuePool};
use serde::{Deserialize, Error, Serialize, Value};

/// Format discriminator carried by every envelope.
pub const WIRE_FORMAT: &str = "affidavit-dist";

/// Version of the wire vocabulary this build speaks. Versions 2 and 3
/// added an expansion-job vocabulary that has since been retired; this
/// build speaks only the explain-job subset of version 3 and rejects any
/// other task as a malformed job.
pub const WIRE_VERSION: u64 = 3;

/// The self-describing outer wrapper of every wire message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Envelope {
    /// Always [`WIRE_FORMAT`].
    pub format: String,
    /// Always [`WIRE_VERSION`] for messages this build produces.
    pub version: u64,
    /// Payload kind: `"job"` or `"result"`.
    pub kind: String,
    /// The payload itself.
    pub body: Value,
}

/// Wrap a payload tree into an envelope and render it as compact JSON.
pub fn seal(kind: &str, body: Value) -> String {
    let envelope = Envelope {
        format: WIRE_FORMAT.to_owned(),
        version: WIRE_VERSION,
        kind: kind.to_owned(),
        body,
    };
    serde_json::to_string(&envelope).expect("envelopes are serializable")
}

/// Parse an envelope, verify format/version/kind, and return the body.
pub fn unseal(text: &str, expect_kind: &str) -> Result<Value, String> {
    let envelope: Envelope = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if envelope.format != WIRE_FORMAT {
        return Err(format!(
            "not an {WIRE_FORMAT} message (format {:?})",
            envelope.format
        ));
    }
    if envelope.version != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {} (this build speaks {WIRE_VERSION})",
            envelope.version
        ));
    }
    if envelope.kind != expect_kind {
        return Err(format!(
            "expected a {expect_kind:?} message, got {:?}",
            envelope.kind
        ));
    }
    Ok(envelope.body)
}

/// A serialized [`ProblemInstance`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireInstance {
    /// Column names, in order.
    pub schema: Vec<String>,
    /// The value pool's distinct strings, in interning order. Row cells
    /// index into this array; decoding re-interns in order, reproducing
    /// the coordinator's symbol numbering exactly.
    pub pool: Vec<String>,
    /// Source snapshot rows as pool indices.
    pub source: Vec<Vec<u32>>,
    /// Target snapshot rows as pool indices.
    pub target: Vec<Vec<u32>>,
}

impl WireInstance {
    /// Serialize an instance. The pool may be larger than the set of
    /// symbols the rows reference (it usually is — staging interned both
    /// snapshots into it); the whole prefix ships so worker symbol
    /// numbering matches the coordinator's.
    pub fn from_instance(instance: &ProblemInstance) -> WireInstance {
        let rows = |table: &Table| {
            table
                .rows()
                .map(|r| r.iter().map(|s| s.0).collect())
                .collect()
        };
        WireInstance {
            schema: instance.schema().names().map(str::to_owned).collect(),
            pool: instance.pool.iter().map(|(_, s)| s.to_owned()).collect(),
            source: rows(&instance.source),
            target: rows(&instance.target),
        }
    }

    /// The pool length at ship time — results reference symbols below this
    /// as-is and symbols at or above it through their `new_strings` list.
    pub fn base_len(&self) -> usize {
        self.pool.len()
    }

    /// Rebuild the instance in a fresh RAM pool, validating that the pool
    /// has no duplicate strings (which would shift symbol numbering) and
    /// that every row has the schema's arity and only in-range symbols.
    pub fn decode(&self) -> Result<ProblemInstance, String> {
        let mut pool = ValuePool::with_capacity(self.pool.len());
        for (i, s) in self.pool.iter().enumerate() {
            let sym = pool.intern(s);
            if sym.index() != i {
                return Err(format!(
                    "wire pool entry {i} duplicates entry {}: {s:?}",
                    sym.index()
                ));
            }
        }
        let arity = self.schema.len();
        let limit = self.pool.len() as u32;
        // Build the columns directly: one gather pass per row validates
        // and transposes into per-attribute buffers, no per-row Record
        // allocation.
        let decode_table = |rows: &[Vec<u32>], which: &str| -> Result<Table, String> {
            let mut columns: Vec<Vec<Sym>> =
                (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
            for (i, row) in rows.iter().enumerate() {
                if row.len() != arity {
                    return Err(format!(
                        "{which} row {i} has {} cells, schema has {arity}",
                        row.len()
                    ));
                }
                if let Some(bad) = row.iter().find(|&&s| s >= limit) {
                    return Err(format!(
                        "{which} row {i} references symbol {bad} outside the pool (len {limit})"
                    ));
                }
                for (col, &s) in columns.iter_mut().zip(row) {
                    col.push(Sym(s));
                }
            }
            Ok(Table::from_columns(
                Schema::new(self.schema.iter().cloned()),
                columns,
            ))
        };
        let source = decode_table(&self.source, "source")?;
        let target = decode_table(&self.target, "target")?;
        ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())
    }
}

/// An [`AffidavitConfig`] in its version-3 encoding: the configuration's
/// own fields, followed by the two fields of the retired frontier
/// speculation engine (`speculative_width`, `speculation_min_records`) at
/// the values that switched it off. Writing them keeps version-3 job
/// bytes stable for deployed workers; reading ignores them.
#[derive(Debug, Clone)]
pub struct WireConfig(pub AffidavitConfig);

impl Serialize for WireConfig {
    fn to_value(&self) -> Value {
        let mut value = self.0.to_value();
        if let Value::Object(fields) = &mut value {
            fields.push(("speculative_width".to_owned(), 1usize.to_value()));
            fields.push(("speculation_min_records".to_owned(), 4096usize.to_value()));
        }
        value
    }
}

impl Deserialize for WireConfig {
    fn from_value(v: &Value) -> Result<WireConfig, Error> {
        AffidavitConfig::from_value(v).map(WireConfig)
    }
}

/// An [`AttrFunction`] on the wire: interned parameters as raw pool
/// indices (meaningful relative to the job's [`WireInstance`] pool plus
/// the result's `new_strings`), exact numerics as strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WireFunction {
    /// `x ↦ x`.
    Identity,
    /// `x ↦ UPPER(x)`.
    Uppercase,
    /// `x ↦ lower(x)`.
    Lowercase,
    /// `x ↦ value`.
    Constant {
        /// Pool index of the constant.
        value: u32,
    },
    /// `x ↦ x + y`.
    Add {
        /// The addend in canonical decimal notation.
        y: String,
    },
    /// `x ↦ x · num/den`.
    Scale {
        /// Numerator (stringified `i128`).
        num: String,
        /// Denominator (stringified `i128`, positive).
        den: String,
    },
    /// Replace the first `|mask|` characters with the mask.
    FrontMask {
        /// Pool index of the mask.
        mask: u32,
    },
    /// Replace the last `|mask|` characters with the mask.
    BackMask {
        /// Pool index of the mask.
        mask: u32,
    },
    /// Strip leading repetitions of `ch`.
    FrontCharTrim {
        /// The trimmed character.
        ch: char,
    },
    /// Strip trailing repetitions of `ch`.
    BackCharTrim {
        /// The trimmed character.
        ch: char,
    },
    /// `x ↦ y ◦ x`.
    Prefix {
        /// Pool index of the prefix.
        y: u32,
    },
    /// `x ↦ x ◦ y`.
    Suffix {
        /// Pool index of the suffix.
        y: u32,
    },
    /// `y ◦ x ↦ z ◦ x`, identity otherwise.
    PrefixReplace {
        /// Pool index of the matched prefix.
        y: u32,
        /// Pool index of the replacement.
        z: u32,
    },
    /// `x ◦ y ↦ x ◦ z`, identity otherwise.
    SuffixReplace {
        /// Pool index of the matched suffix.
        y: u32,
        /// Pool index of the replacement.
        z: u32,
    },
    /// Date format conversion.
    DateConvert {
        /// Source format.
        from: DateFormat,
        /// Target format.
        to: DateFormat,
    },
    /// Zero-pad digit strings to `width`.
    ZeroPad {
        /// Target width in characters.
        width: u32,
    },
    /// Insert a thousands separator.
    ThousandsSep {
        /// The separator character.
        sep: char,
    },
    /// Remove a thousands separator.
    SepStrip {
        /// The separator character.
        sep: char,
    },
    /// Round to `places` fraction digits.
    Round {
        /// Fraction digits kept.
        places: u32,
    },
    /// FlashFill-lite token program.
    TokenProgram {
        /// The program's segments.
        segments: Vec<WireSegment>,
    },
    /// Explicit value mapping (identity fallback).
    Map {
        /// `(input, output)` pool-index pairs.
        entries: Vec<(u32, u32)>,
    },
}

/// One token-program segment on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WireSegment {
    /// A literal glue string (pool index).
    Literal {
        /// Pool index of the literal.
        sym: u32,
    },
    /// A token reference: 0-based from the front, or negative from the
    /// back (`-1` = last token).
    Token {
        /// The token index.
        index: i32,
    },
}

impl WireFunction {
    /// Serialize a function. No pool is needed — symbols cross the wire
    /// as raw indices.
    pub fn from_attr(f: &AttrFunction) -> WireFunction {
        match f {
            AttrFunction::Identity => WireFunction::Identity,
            AttrFunction::Uppercase => WireFunction::Uppercase,
            AttrFunction::Lowercase => WireFunction::Lowercase,
            AttrFunction::Constant(v) => WireFunction::Constant { value: v.0 },
            AttrFunction::Add(y) => WireFunction::Add { y: y.to_string() },
            AttrFunction::Scale(r) => WireFunction::Scale {
                num: r.num().to_string(),
                den: r.den().to_string(),
            },
            AttrFunction::FrontMask(m) => WireFunction::FrontMask { mask: m.0 },
            AttrFunction::BackMask(m) => WireFunction::BackMask { mask: m.0 },
            AttrFunction::FrontCharTrim(c) => WireFunction::FrontCharTrim { ch: *c },
            AttrFunction::BackCharTrim(c) => WireFunction::BackCharTrim { ch: *c },
            AttrFunction::Prefix(y) => WireFunction::Prefix { y: y.0 },
            AttrFunction::Suffix(y) => WireFunction::Suffix { y: y.0 },
            AttrFunction::PrefixReplace(y, z) => WireFunction::PrefixReplace { y: y.0, z: z.0 },
            AttrFunction::SuffixReplace(y, z) => WireFunction::SuffixReplace { y: y.0, z: z.0 },
            AttrFunction::DateConvert(from, to) => WireFunction::DateConvert {
                from: *from,
                to: *to,
            },
            AttrFunction::ZeroPad(width) => WireFunction::ZeroPad { width: *width },
            AttrFunction::ThousandsSep(sep) => WireFunction::ThousandsSep { sep: *sep },
            AttrFunction::SepStrip(sep) => WireFunction::SepStrip { sep: *sep },
            AttrFunction::Round(places) => WireFunction::Round { places: *places },
            AttrFunction::TokenProgram(prog) => WireFunction::TokenProgram {
                segments: prog
                    .segments()
                    .iter()
                    .map(|seg| match *seg {
                        Segment::Literal(l) => WireSegment::Literal { sym: l.0 },
                        Segment::Token {
                            idx,
                            from_end: false,
                        } => WireSegment::Token { index: idx as i32 },
                        Segment::Token {
                            idx,
                            from_end: true,
                        } => WireSegment::Token {
                            index: -(idx as i32) - 1,
                        },
                    })
                    .collect(),
            },
            AttrFunction::Map(m) => WireFunction::Map {
                entries: m.entries().iter().map(|&(k, v)| (k.0, v.0)).collect(),
            },
        }
    }

    /// Rebuild the interned function, validating every symbol against the
    /// worker-side pool length (shipped prefix + new strings). The caller
    /// rewrites the symbols into its own pool afterwards via
    /// [`AttrFunction::remap`].
    pub fn to_attr(&self, pool_len: usize) -> Result<AttrFunction, String> {
        let sym = |s: &u32| -> Result<Sym, String> {
            if (*s as usize) < pool_len {
                Ok(Sym(*s))
            } else {
                Err(format!(
                    "function references symbol {s} outside the worker pool (len {pool_len})"
                ))
            }
        };
        Ok(match self {
            WireFunction::Identity => AttrFunction::Identity,
            WireFunction::Uppercase => AttrFunction::Uppercase,
            WireFunction::Lowercase => AttrFunction::Lowercase,
            WireFunction::Constant { value } => AttrFunction::Constant(sym(value)?),
            WireFunction::Add { y } => {
                AttrFunction::Add(Decimal::parse(y).ok_or_else(|| format!("bad addend {y:?}"))?)
            }
            WireFunction::Scale { num, den } => {
                let num: i128 = num.parse().map_err(|_| format!("bad numerator {num:?}"))?;
                let den: i128 = den
                    .parse()
                    .map_err(|_| format!("bad denominator {den:?}"))?;
                AttrFunction::Scale(
                    Rational::new(num, den).ok_or_else(|| "zero denominator".to_owned())?,
                )
            }
            WireFunction::FrontMask { mask } => AttrFunction::FrontMask(sym(mask)?),
            WireFunction::BackMask { mask } => AttrFunction::BackMask(sym(mask)?),
            WireFunction::FrontCharTrim { ch } => AttrFunction::FrontCharTrim(*ch),
            WireFunction::BackCharTrim { ch } => AttrFunction::BackCharTrim(*ch),
            WireFunction::Prefix { y } => AttrFunction::Prefix(sym(y)?),
            WireFunction::Suffix { y } => AttrFunction::Suffix(sym(y)?),
            WireFunction::PrefixReplace { y, z } => AttrFunction::PrefixReplace(sym(y)?, sym(z)?),
            WireFunction::SuffixReplace { y, z } => AttrFunction::SuffixReplace(sym(y)?, sym(z)?),
            WireFunction::DateConvert { from, to } => AttrFunction::DateConvert(*from, *to),
            WireFunction::ZeroPad { width } => AttrFunction::ZeroPad(*width),
            WireFunction::ThousandsSep { sep } => AttrFunction::ThousandsSep(*sep),
            WireFunction::SepStrip { sep } => AttrFunction::SepStrip(*sep),
            WireFunction::Round { places } => AttrFunction::Round(*places),
            WireFunction::TokenProgram { segments } => {
                let segs = segments
                    .iter()
                    .map(|seg| {
                        Ok(match seg {
                            WireSegment::Literal { sym: s } => Segment::Literal(sym(s)?),
                            WireSegment::Token { index } if *index >= 0 && *index < 256 => {
                                Segment::Token {
                                    idx: *index as u8,
                                    from_end: false,
                                }
                            }
                            WireSegment::Token { index } if *index < 0 && *index >= -256 => {
                                Segment::Token {
                                    idx: (-*index - 1) as u8,
                                    from_end: true,
                                }
                            }
                            WireSegment::Token { index } => {
                                return Err(format!("token index {index} out of range"))
                            }
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                AttrFunction::TokenProgram(
                    TokenProgram::new(segs).ok_or_else(|| "degenerate token program".to_owned())?,
                )
            }
            WireFunction::Map { entries } => {
                let pairs = entries
                    .iter()
                    .map(|(k, v)| Ok((sym(k)?, sym(v)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                AttrFunction::Map(ValueMap::from_pairs(pairs))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table};

    fn sample_instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["Val", "Org"]),
            &mut pool,
            vec![vec!["80000", "IBM"], vec!["65", "SAP"]],
        );
        let t = Table::from_rows(
            Schema::new(["Val", "Org"]),
            &mut pool,
            vec![vec!["80", "IBM"], vec!["0.065", "SAP"]],
        );
        ProblemInstance::new(s, t, pool).unwrap()
    }

    #[test]
    fn instance_roundtrips_with_identical_numbering() {
        let instance = sample_instance();
        let wire = WireInstance::from_instance(&instance);
        let back = wire.decode().unwrap();
        assert_eq!(back.pool.len(), instance.pool.len());
        for i in 0..instance.pool.len() {
            let sym = Sym(i as u32);
            assert_eq!(back.pool.get(sym), instance.pool.get(sym));
        }
        assert_eq!(
            WireInstance::from_instance(&back),
            wire,
            "re-encoding must be a fixed point"
        );
    }

    #[test]
    fn decode_rejects_malformed_instances() {
        let instance = sample_instance();
        let wire = WireInstance::from_instance(&instance);

        let mut dup = wire.clone();
        dup.pool.push(dup.pool[0].clone());
        assert!(dup.decode().unwrap_err().contains("duplicates"));

        let mut bad_sym = wire.clone();
        bad_sym.source[0][0] = 999;
        assert!(bad_sym.decode().unwrap_err().contains("outside the pool"));

        let mut bad_arity = wire.clone();
        bad_arity.target[1].pop();
        assert!(bad_arity.decode().unwrap_err().contains("cells"));
    }

    #[test]
    fn envelope_rejects_foreign_messages() {
        let body = Value::Object(vec![]);
        let text = seal("job", body.clone());
        assert!(unseal(&text, "job").is_ok());
        assert!(unseal(&text, "result").unwrap_err().contains("expected"));
        let alien = text.replace("affidavit-dist", "other-format");
        assert!(unseal(&alien, "job").unwrap_err().contains("format"));
        let future = text.replace("\"version\":3", "\"version\":4");
        assert!(unseal(&future, "job")
            .unwrap_err()
            .contains("unsupported wire version"));
    }

    #[test]
    fn functions_roundtrip_without_a_pool() {
        let mut pool = ValuePool::new();
        let all = vec![
            AttrFunction::Identity,
            AttrFunction::Constant(pool.intern("c")),
            AttrFunction::Add(Decimal::parse("-2.5").unwrap()),
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
            AttrFunction::PrefixReplace(pool.intern("a"), pool.intern("b")),
            AttrFunction::DateConvert(DateFormat::YyyyMmDd, DateFormat::IsoDashed),
            AttrFunction::TokenProgram(
                TokenProgram::new(vec![
                    Segment::Token {
                        idx: 0,
                        from_end: true,
                    },
                    Segment::Literal(pool.intern("-")),
                    Segment::Token {
                        idx: 1,
                        from_end: false,
                    },
                ])
                .unwrap(),
            ),
            AttrFunction::Map(ValueMap::from_pairs([
                (pool.intern("1"), pool.intern("one")),
                (pool.intern("2"), pool.intern("two")),
            ])),
        ];
        for f in all {
            let wire = WireFunction::from_attr(&f);
            let json = serde_json::to_string(&wire).unwrap();
            let back: WireFunction = serde_json::from_str(&json).unwrap();
            assert_eq!(back, wire);
            let rebuilt = back.to_attr(pool.len()).unwrap();
            assert_eq!(rebuilt, f, "syms must survive the wire exactly");
        }
    }

    #[test]
    fn function_decode_checks_symbol_bounds() {
        let wire = WireFunction::Constant { value: 7 };
        assert!(wire.to_attr(7).is_err());
        assert!(wire.to_attr(8).is_ok());
    }
}
