//! `Serialize` / `Deserialize` for the standard-library types the workspace
//! puts into serialized structures.

use crate::__private::{from_value, to_value};
use crate::de::Error as _;
use crate::ser::Error as _;
use crate::{Deserialize, Deserializer, Error, Map, Number, Serialize, Serializer, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::time::Duration;

fn invalid_type<E: crate::de::Error>(value: &Value, expected: &str) -> E {
    E::custom(format_args!(
        "invalid type: {}, expected {expected}",
        value.kind()
    ))
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_value()
    }
}

macro_rules! unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Number(Number::U(*self as u64)))
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let value = deserializer.into_value()?;
                value
                    .as_u64()
                    .and_then(|v| <$ty>::try_from(v).ok())
                    .ok_or_else(|| invalid_type(&value, concat!("a ", stringify!($ty))))
            }
        }
    )*};
}

macro_rules! signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Number(Number::I(*self as i64)))
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let value = deserializer.into_value()?;
                value
                    .as_i64()
                    .and_then(|v| <$ty>::try_from(v).ok())
                    .ok_or_else(|| invalid_type(&value, concat!("an ", stringify!($ty))))
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::from(*self))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        value
            .as_f64()
            .ok_or_else(|| invalid_type(&value, "a number"))
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::from(*self))
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Bool(*self))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        value
            .as_bool()
            .ok_or_else(|| invalid_type(&value, "a boolean"))
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_string()))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        let mut chars = value.as_str().unwrap_or("").chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(invalid_type(&value, "a character")),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_owned()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_str().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::String(s) => Ok(s),
            other => Err(invalid_type(&other, "a string")),
        }
    }
}

/// serde ties a borrowed `&str` field to the input's lifetime, so a
/// `&'static str` field reads only from `'static` input. The tree owns its
/// strings; the stand-in leaks the text instead. Such fields are rationale
/// strings on report types that are written, not read, at run time.
impl<'de> Deserialize<'de> for &'static str {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(|s| &*Box::leak(s.into_boxed_str()))
    }
}

/// `{"Ok": ..}` or `{"Err": ..}`, serde's encoding of a `Result`.
impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (tag, payload) = match self {
            Ok(v) => ("Ok", to_value(v)),
            Err(e) => ("Err", to_value(e)),
        };
        let payload = payload.map_err(S::Error::custom)?;
        serializer.serialize_value(crate::__private::tagged(tag, payload))
    }
}

impl<'de, T, E> Deserialize<'de> for Result<T, E>
where
    T: for<'a> Deserialize<'a>,
    E: for<'a> Deserialize<'a>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        let (tag, payload) =
            crate::__private::enum_parts(value, "Result").map_err(D::Error::custom)?;
        match tag.as_str() {
            "Ok" => from_value(payload).map(Ok).map_err(D::Error::custom),
            "Err" => from_value(payload).map(Err).map_err(D::Error::custom),
            other => Err(D::Error::custom(crate::__private::unknown_variant(
                other, "Result",
            ))),
        }
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Null)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Null => Ok(()),
            other => Err(invalid_type(&other, "unit")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

macro_rules! smart_pointer {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                (**self).serialize(serializer)
            }
        }
        impl<'de, T: Deserialize<'de>> Deserialize<'de> for $ptr<T> {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                T::deserialize(deserializer).map($ptr::new)
            }
        }
    )*};
}

use std::rc::Rc;
use std::sync::Arc;
smart_pointer!(Box, Rc, Arc);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(serializer),
            None => serializer.serialize_value(Value::Null),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Null => Ok(None),
            other => from_value(other).map(Some).map_err(D::Error::custom),
        }
    }

    fn missing_field(_field: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn sequence<'a, S, T, I>(items: I, serializer: S) -> Result<S::Ok, S::Error>
where
    S: Serializer,
    T: Serialize + 'a,
    I: IntoIterator<Item = &'a T>,
{
    let values = items
        .into_iter()
        .map(|item| to_value(item))
        .collect::<Result<Vec<_>, _>>()
        .map_err(S::Error::custom)?;
    serializer.serialize_value(Value::Array(values))
}

fn elements<'de, D, T, C>(deserializer: D, expected: &str) -> Result<C, D::Error>
where
    D: Deserializer<'de>,
    T: for<'a> Deserialize<'a>,
    C: FromIterator<T>,
{
    match deserializer.into_value()? {
        Value::Array(items) => items
            .into_iter()
            .map(from_value)
            .collect::<Result<C, _>>()
            .map_err(D::Error::custom),
        other => Err(invalid_type(&other, expected)),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        sequence(self, serializer)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        sequence(self, serializer)
    }
}

impl<'de, T: for<'a> Deserialize<'a>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = elements(deserializer, "an array")?;
        let len = items.len();
        <[T; N]>::try_from(items).map_err(|_| {
            D::Error::custom(format_args!(
                "invalid length {len}, expected an array of {N}"
            ))
        })
    }
}

macro_rules! sequence_like {
    ($($name:ident <T $(: $bound:ident $(+ $more:ident)*)?>),*) => {$(
        impl<T: Serialize> Serialize for $name<T> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                sequence(self, serializer)
            }
        }
        impl<'de, T: for<'a> Deserialize<'a> $(+ $bound $(+ $more)*)?> Deserialize<'de> for $name<T> {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                elements(deserializer, "a sequence")
            }
        }
    )*};
}

sequence_like!(Vec<T>, VecDeque<T>, BTreeSet<T: Ord>);

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        sequence(self, serializer)
    }
}

impl<'de, T, H> Deserialize<'de> for HashSet<T, H>
where
    T: for<'a> Deserialize<'a> + Eq + Hash,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        elements(deserializer, "a sequence")
    }
}

macro_rules! tuples {
    ($(($len:literal: $($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<Ser: Serializer>(&self, serializer: Ser) -> Result<Ser::Ok, Ser::Error> {
                let items = vec![$(to_value(&self.$idx).map_err(Ser::Error::custom)?),+];
                serializer.serialize_value(Value::Array(items))
            }
        }
        impl<'de, $($name: for<'a> Deserialize<'a>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<De: Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
                let value = deserializer.into_value()?;
                let mut items = crate::__private::expect_array(value, $len, "a tuple")
                    .map_err(De::Error::custom)?
                    .into_iter();
                Ok(($(
                    from_value::<$name>(items.next().expect("length checked"))
                        .map_err(De::Error::custom)?,
                )+))
            }
        }
    )*};
}

tuples! {
    (1: A.0)
    (2: A.0, B.1)
    (3: A.0, B.1, C.2)
    (4: A.0, B.1, C.2, D.3)
    (5: A.0, B.1, C.2, D.3, E.4)
    (6: A.0, B.1, C.2, D.3, E.4, F.5)
}

/// JSON object keys are strings: a string key is itself, an integer or a
/// boolean key is its text, anything else is refused (as by serde_json).
fn key_text(key: Value) -> Result<String, Error> {
    match key {
        Value::String(s) => Ok(s),
        Value::Number(n @ (Number::U(_) | Number::I(_))) => Ok(n.to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        other => Err(Error::msg(format_args!(
            "key must be a string, got {}",
            other.kind()
        ))),
    }
}

/// Reads a key back: as a string first, then as the number or boolean the
/// text spells.
fn key_from_text<K: for<'a> Deserialize<'a>>(text: String) -> Result<K, Error> {
    let respelled = if let Ok(v) = text.parse::<u64>() {
        Some(Value::Number(Number::U(v)))
    } else if let Ok(v) = text.parse::<i64>() {
        Some(Value::Number(Number::I(v)))
    } else if let Ok(v) = text.parse::<bool>() {
        Some(Value::Bool(v))
    } else {
        None
    };
    match (from_value(Value::String(text)), respelled) {
        (Ok(key), _) => Ok(key),
        (Err(_), Some(value)) => from_value(value),
        (Err(e), None) => Err(e),
    }
}

fn map_entries<'a, S, K, V, I>(entries: I, serializer: S) -> Result<S::Ok, S::Error>
where
    S: Serializer,
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: IntoIterator<Item = (&'a K, &'a V)>,
{
    let mut map = Map::new();
    for (k, v) in entries {
        let key = to_value(k).and_then(key_text).map_err(S::Error::custom)?;
        // Keys of one Rust map are distinct, so no look-up per entry.
        map.push_unique(key, to_value(v).map_err(S::Error::custom)?);
    }
    serializer.serialize_value(Value::Object(map))
}

fn map_from<'de, D, K, V, C>(deserializer: D) -> Result<C, D::Error>
where
    D: Deserializer<'de>,
    K: for<'a> Deserialize<'a>,
    V: for<'a> Deserialize<'a>,
    C: FromIterator<(K, V)>,
{
    match deserializer.into_value()? {
        Value::Object(map) => map
            .into_iter()
            .map(|(k, v)| Ok((key_from_text(k)?, from_value(v)?)))
            .collect::<Result<C, Error>>()
            .map_err(D::Error::custom),
        other => Err(invalid_type(&other, "a map")),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        map_entries(self, serializer)
    }
}

impl<'de, K, V> Deserialize<'de> for BTreeMap<K, V>
where
    K: for<'a> Deserialize<'a> + Ord,
    V: for<'a> Deserialize<'a>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        map_from(deserializer)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        map_entries(self, serializer)
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: for<'a> Deserialize<'a> + Eq + Hash,
    V: for<'a> Deserialize<'a>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        map_from(deserializer)
    }
}

/// `{"secs": .., "nanos": ..}`, serde's encoding of a `Duration`.
impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = Map::new();
        map.insert("secs".to_owned(), Value::from(self.as_secs()));
        map.insert("nanos".to_owned(), Value::from(self.subsec_nanos()));
        serializer.serialize_value(Value::Object(map))
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        match (value["secs"].as_u64(), value["nanos"].as_u64()) {
            (Some(secs), Some(nanos)) if nanos < 1_000_000_000 => {
                Ok(Duration::new(secs, nanos as u32))
            }
            _ => Err(invalid_type(&value, "a duration as {secs, nanos}")),
        }
    }
}

macro_rules! via_text {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::String(self.to_string()))
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let value = deserializer.into_value()?;
                value
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid_type(&value, stringify!($ty)))
            }
        }
    )*};
}

via_text!(std::net::SocketAddr, std::net::IpAddr);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(value: T) -> T
    where
        T: Serialize + for<'a> Deserialize<'a>,
    {
        from_value(to_value(&value).unwrap()).unwrap()
    }

    #[test]
    fn std_types_round_trip() {
        assert_eq!(round_trip(u64::MAX), u64::MAX);
        assert_eq!(round_trip(i64::MIN), i64::MIN);
        assert_eq!(round_trip(-0.75f64), -0.75);
        assert_eq!(round_trip(Some("x".to_owned())), Some("x".to_owned()));
        assert_eq!(round_trip(None::<u8>), None);
        assert_eq!(round_trip(vec![(1u8, 'c', true)]), vec![(1, 'c', true)]);
        assert_eq!(round_trip([1u16, 2, 3]), [1, 2, 3]);
        assert_eq!(round_trip(Duration::new(3, 7)), Duration::new(3, 7));
        let addr: std::net::SocketAddr = "127.0.0.1:80".parse().unwrap();
        assert_eq!(round_trip(addr), addr);
        let set: BTreeSet<u8> = [3, 1].into();
        assert_eq!(round_trip(set.clone()), set);
        let outcomes: Vec<Result<u8, String>> = vec![Ok(1), Err("e".to_owned())];
        assert_eq!(
            to_value(&outcomes).unwrap().to_string(),
            r#"[{"Ok":1},{"Err":"e"}]"#
        );
        assert_eq!(round_trip(outcomes.clone()), outcomes);
        assert_eq!(
            from_value::<&'static str>(Value::from("why")).unwrap(),
            "why"
        );
    }

    #[test]
    fn integer_keyed_maps_use_string_keys() {
        let map: BTreeMap<u32, String> = [(7, "a".to_owned()), (10, "b".to_owned())].into();
        let value = to_value(&map).unwrap();
        assert_eq!(value.to_string(), r#"{"7":"a","10":"b"}"#);
        assert_eq!(from_value::<BTreeMap<u32, String>>(value).unwrap(), map);
        let named: HashMap<String, i8> = [("7".to_owned(), -1)].into();
        assert_eq!(round_trip(named.clone()), named);
    }

    #[test]
    fn out_of_range_and_mistyped_values_are_errors() {
        assert!(from_value::<u8>(Value::from(256u32)).is_err());
        assert!(from_value::<u32>(Value::from(-1i32)).is_err());
        assert!(from_value::<u32>(Value::from(1.5)).is_err());
        assert!(from_value::<String>(Value::Null).is_err());
        assert!(from_value::<(u8, u8)>(Value::parse("[1]").unwrap()).is_err());
        assert!(from_value::<[u8; 2]>(Value::parse("[1,2,3]").unwrap()).is_err());
        assert!(to_value(&BTreeMap::from([((1u8, 2u8), 3u8)])).is_err());
        assert_eq!(from_value::<f64>(Value::from(3u8)).unwrap(), 3.0);
    }
}
