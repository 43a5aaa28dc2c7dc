//! The intermediate tree every (de)serialization passes through, with its
//! JSON text form.

use crate::Error;
use std::fmt::{self, Write as _};
use std::ops::{Index, IndexMut};

/// A JSON number: the integer forms are kept exact.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        })
    }

    pub fn is_f64(&self) -> bool {
        matches!(self, Number::F(_))
    }

    /// A float number, or `None` for NaN and the infinities, which JSON
    /// cannot carry.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number::F(v))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i64(), other.as_i64(), self.as_u64(), other.as_u64()) {
            (Some(a), Some(b), _, _) => a == b,
            (_, _, Some(a), Some(b)) => a == b,
            _ => match (self, other) {
                (Number::F(a), Number::F(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(v) => write!(f, "{v}"),
            Number::I(v) => write!(f, "{v}"),
            // `{:?}` is the shortest text that reads back to the same bits
            // and always marks the value as a float (`1.0`, `1e-7`).
            Number::F(v) => write!(f, "{v:?}"),
        }
    }
}

macro_rules! number_from {
    ($($ty:ty => $variant:ident as $wide:ty),*) => {$(
        impl From<$ty> for Number {
            fn from(v: $ty) -> Number {
                Number::$variant(v as $wide)
            }
        }
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::Number(v.into())
            }
        }
    )*};
}

number_from!(u8 => U as u64, u16 => U as u64, u32 => U as u64, u64 => U as u64, usize => U as u64,
             i8 => I as i64, i16 => I as i64, i32 => I as i64, i64 => I as i64, isize => I as i64);

/// An object: keys in insertion order, as a struct's fields are written.
///
/// Look-ups scan; objects here are structs and small maps, and bulk readers
/// iterate instead of probing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Map {
            entries: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Sets `key`, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Appends without looking for an existing `key`; for writers that know
    /// their keys are distinct (a struct's fields, a Rust map's entries).
    #[doc(hidden)]
    pub fn push_unique(&mut self, key: String, value: Value) {
        self.entries.push((key, value));
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(at).1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The JSON type name, for error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(Number::F(_)) => "floating point number",
            Value::Number(_) => "integer",
            Value::String(_) => "string",
            Value::Array(_) => "sequence",
            Value::Object(_) => "map",
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object or element `index` of an array.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Replaces `self` with `Null` and returns the old value.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }

    /// Compact JSON text.
    pub fn write_compact(&self, out: &mut String) {
        write_value(self, out, None, 0);
    }

    /// JSON text indented by two spaces per level.
    pub fn write_pretty(&self, out: &mut String) {
        write_value(self, out, Some("  "), 0);
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

/// Compact JSON, as `serde_json::Value` prints.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        if f.alternate() {
            self.write_pretty(&mut out);
        } else {
            self.write_compact(&mut out);
        }
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(f64::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

macro_rules! value_eq {
    ($($ty:ty => |$v:ident, $o:ident| $test:expr),* $(,)?) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, $o: &$ty) -> bool {
                let $v = self;
                $test
            }
        }
        impl PartialEq<Value> for $ty {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

value_eq! {
    str => |v, o| v.as_str() == Some(o),
    &str => |v, o| v.as_str() == Some(*o),
    String => |v, o| v.as_str() == Some(o.as_str()),
    bool => |v, o| v.as_bool() == Some(*o),
    u32 => |v, o| v.as_u64() == Some(u64::from(*o)),
    u64 => |v, o| v.as_u64() == Some(*o),
    usize => |v, o| v.as_u64() == Some(*o as u64),
    i32 => |v, o| v.as_i64() == Some(i64::from(*o)),
    i64 => |v, o| v.as_i64() == Some(*o),
    f64 => |v, o| v.as_f64() == Some(*o),
}

/// A key or position usable with `value[...]` and [`Value::get`].
pub trait ValueIndex {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value;
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array()?.get(*self)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        match value {
            Value::Array(items) => {
                let len = items.len();
                items.get_mut(*self).unwrap_or_else(|| {
                    panic!("cannot access index {self} of JSON array of length {len}")
                })
            }
            other => panic!("cannot access index {self} of JSON {}", other.kind()),
        }
    }
}

impl ValueIndex for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object()?.get(self)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        if value.is_null() {
            *value = Value::Object(Map::new());
        }
        match value {
            Value::Object(map) => {
                if !map.contains_key(self) {
                    map.push_unique(self.to_owned(), Value::Null);
                }
                map.get_mut(self).expect("key ensured above")
            }
            other => panic!("cannot access key {self:?} in JSON {}", other.kind()),
        }
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(value)
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }

    fn index_or_insert<'v>(&self, value: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(value)
    }
}

/// Missing members read as `Null`, as with `serde_json`.
impl<I: ValueIndex> Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

/// Writing through a missing object key inserts it; `Null` becomes an object.
impl<I: ValueIndex> IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

fn newline(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_value(value: &Value, out: &mut String, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) if map.is_empty() => out.push_str("{}"),
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push('}');
        }
    }
}

/// Nesting beyond this is refused, so hostile input cannot overflow the
/// stack (the same limit as serde_json).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = consumed.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = consumed.iter().rev().take_while(|&&b| b != b'\n').count() + 1;
        Error::msg(format_args!("{what} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        match self.peek() {
            None => Err(self.error("EOF while parsing a value")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("key must be a string"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let item = self.value(depth + 1)?;
                    // A repeated key keeps its last value, as serde_json does.
                    map.insert(key, item);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        if int_len == 0 || (int_len > 1 && self.bytes[int_start] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("invalid number"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number characters are ASCII");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(v)));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Number(Number::F(v))),
            _ => Err(self.error("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                self.pos += 1;
            }
            // The input is a `&str` and the run ends on an ASCII byte, so the
            // run is whole UTF-8 sequences.
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("EOF while parsing a string"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                if !self.eat("\\u") {
                                    return Err(self.error("lone leading surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("invalid trailing surrogate"));
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode code point"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips_and_keeps_key_order() {
        let text = r#"{"z":1,"a":[true,null,-3,2.5,"q\"\\\né"],"m":{"k":1e-7}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v["a"][2], -3i64);
        assert_eq!(v["a"][4], "q\"\\\né");
        assert_eq!(v["m"]["k"].as_f64(), Some(1e-7));
        assert!(v["missing"]["deeper"].is_null());
        let mut out = String::new();
        v.write_compact(&mut out);
        assert_eq!(Value::parse(&out).unwrap(), v);
        assert!(out.starts_with(r#"{"z":1,"a":"#), "{out}");
    }

    #[test]
    fn integers_stay_exact_and_floats_read_back_bit_for_bit() {
        for text in ["18446744073709551615", "-9223372036854775808", "0"] {
            assert_eq!(Value::parse(text).unwrap().to_string(), text);
        }
        for f in [0.1f64, 1.0 / 3.0, 1e300, 5e-324, 123456789.125, 1e16, 0.304] {
            let text = Value::from(f).to_string();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
            assert!(text.contains(['.', 'e']), "{text} must read as a float");
        }
        assert!(Value::from(f64::NAN).is_null());
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            "01",
            "1.",
            "-",
            "1e",
            "tru",
            r#""\x""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            "\"\u{1}\"",
            "1 2",
            r#""abc"#,
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn surrogate_pairs_and_escapes_decode() {
        let v = Value::parse(r#""\ud83d\ude00 \u0041\/""#).unwrap();
        assert_eq!(v, "\u{1f600} A/");
        let mut out = String::new();
        Value::from("\u{1}\u{1f}").write_compact(&mut out);
        assert_eq!(out, r#""\u0001\u001f""#);
    }

    #[test]
    fn index_mut_inserts_into_objects_and_null() {
        let mut v = Value::Null;
        v["a"]["b"] = Value::from(1u32);
        v["a"]["c"] = Value::from("x");
        assert_eq!(v.to_string(), r#"{"a":{"b":1,"c":"x"}}"#);
        v["a"]["b"] = Value::from(2u32);
        assert_eq!(v["a"]["b"], 2u32);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::parse(r#"{"a":[1,{"b":[]}],"c":{}}"#).unwrap();
        let mut out = String::new();
        v.write_pretty(&mut out);
        assert!(out.contains("\n  \"a\": [\n    1,"), "{out}");
        assert_eq!(Value::parse(&out).unwrap(), v);
    }
}
