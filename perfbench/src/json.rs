//! Builders for the JSON tree of the vendored `serde_json`, which has no
//! `json!` macro.

use serde_json::Number;
pub use serde_json::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::Num(Number::Float(x))
}

pub fn int(x: u64) -> Value {
    Value::Num(Number::PosInt(x))
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON trees always render")
}
