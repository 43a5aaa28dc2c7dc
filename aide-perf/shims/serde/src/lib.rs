//! Offline stand-in for `serde`.
//!
//! The real serde streams a value through a visitor API with some thirty
//! methods on each side. This stand-in keeps the same trait names and
//! signatures at the points the workspace touches them (`Serialize`,
//! `Deserialize<'de>`, `Serializer`, `Deserializer<'de>`, the derive macros
//! and their `default` / `skip` / `skip_serializing_if` / `with` attributes)
//! but routes everything through one intermediate tree, [`Value`]: a
//! serializer accepts a finished tree, a deserializer hands one out. The
//! encoding of Rust types into that tree is serde's JSON encoding (structs
//! as objects in field order, externally tagged enums, newtype structs
//! transparent, `Option` as `null`), so files written by the real crates
//! parse here and the other way round.
//!
//! Not supported, and rejected at compile time by the derive: generic or
//! borrowing types, and any `#[serde(...)]` attribute beyond the four above.

mod impls;
mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

use std::fmt::{self, Display};

/// The one error type of the stand-in: a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn msg(msg: impl Display) -> Self {
        Error(msg.to_string())
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub mod ser {
    pub use crate::{Serialize, Serializer};
    use std::fmt::Display;

    /// Errors a serializer can raise from a message.
    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;
    }

    impl Error for crate::Error {
        fn custom<T: Display>(msg: T) -> Self {
            crate::Error::msg(msg)
        }
    }
}

pub mod de {
    pub use crate::{Deserialize, DeserializeOwned, Deserializer};
    use std::fmt::Display;

    /// Errors a deserializer can raise from a message.
    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;

        fn missing_field(field: &'static str) -> Self {
            Self::custom(format_args!("missing field `{field}`"))
        }
    }

    impl Error for crate::Error {
        fn custom<T: Display>(msg: T) -> Self {
            crate::Error::msg(msg)
        }
    }
}

/// A data structure that can be written out.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for one finished [`Value`] tree.
pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// A data structure that can be read back.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;

    /// What an absent struct field of this type becomes; only `Option`
    /// overrides it (to `None`), as in serde.
    #[doc(hidden)]
    fn missing_field(field: &'static str) -> Result<Self, Error> {
        Err(<Error as de::Error>::missing_field(field))
    }
}

/// A source of one [`Value`] tree.
pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    fn into_value(self) -> Result<Value, Self::Error>;
}

/// A type that deserializes without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Support code for the derive macros and for `serde_json`.
#[doc(hidden)]
pub mod __private {
    use super::*;

    pub use super::Error;

    /// Serializer whose output is the tree itself.
    pub struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Error;

        fn serialize_value(self, value: Value) -> Result<Value, Error> {
            Ok(value)
        }
    }

    /// Deserializer over an owned tree.
    pub struct ValueDeserializer(pub Value);

    impl<'de> Deserializer<'de> for ValueDeserializer {
        type Error = Error;

        fn into_value(self) -> Result<Value, Error> {
            Ok(self.0)
        }
    }

    pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
        value.serialize(ValueSerializer)
    }

    pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, Error> {
        T::deserialize(ValueDeserializer(value))
    }

    /// Takes field `name` out of a struct's object.
    pub fn take_field(object: &mut Map<String, Value>, name: &str) -> Option<Value> {
        object.remove(name)
    }

    /// Reads a struct field, or what its type makes of an absent one.
    pub fn field<T: for<'de> Deserialize<'de>>(
        object: &mut Map<String, Value>,
        name: &'static str,
    ) -> Result<T, Error> {
        match take_field(object, name) {
            Some(v) => from_value(v).map_err(|e| Error::msg(format_args!("{name}: {e}"))),
            None => T::missing_field(name),
        }
    }

    pub fn expect_object(value: Value, what: &str) -> Result<Map<String, Value>, Error> {
        match value {
            Value::Object(map) => Ok(map),
            other => Err(Error::msg(format_args!(
                "invalid type: {}, expected {what}",
                other.kind()
            ))),
        }
    }

    pub fn expect_array(value: Value, len: usize, what: &str) -> Result<Vec<Value>, Error> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::msg(format_args!(
                "invalid length {}, expected {what} with {len} elements",
                items.len()
            ))),
            other => Err(Error::msg(format_args!(
                "invalid type: {}, expected {what}",
                other.kind()
            ))),
        }
    }

    /// Splits an externally tagged enum into variant name and payload:
    /// `"Name"` or `{"Name": payload}`.
    pub fn enum_parts(value: Value, what: &str) -> Result<(String, Value), Error> {
        match value {
            Value::String(name) => Ok((name, Value::Null)),
            Value::Object(map) if map.len() == 1 => {
                Ok(map.into_iter().next().expect("length checked above"))
            }
            other => Err(Error::msg(format_args!(
                "invalid type: {}, expected enum {what} as a string or a single-key map",
                other.kind()
            ))),
        }
    }

    pub fn unknown_variant(name: &str, what: &str) -> Error {
        Error::msg(format_args!("unknown variant `{name}` of enum {what}"))
    }

    pub fn tagged(variant: &str, payload: Value) -> Value {
        let mut map = Map::new();
        map.insert(variant.to_owned(), payload);
        Value::Object(map)
    }
}
