//! Offline stand-in for `serde_json`: the text functions, `Value` and
//! `json!` over the serde stand-in's value tree.

pub use serde::{Map, Number, Value};

/// Parse and data-shape errors alike are a message.
pub type Error = serde::__private::Error;
pub type Result<T> = std::result::Result<T, Error>;

use serde::de::DeserializeOwned;
use serde::Serialize;

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    serde::__private::to_value(value)
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde::__private::from_value(value)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    to_value(value)?.write_compact(&mut out);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    to_value(value)?.write_pretty(&mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_value(Value::parse(text)?)
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::msg(format_args!("{e}")))?;
    from_str(text)
}

/// Builds a [`Value`] from JSON-like syntax with interpolated expressions.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

// The array and object rules munch one element at a time so that an element
// can be `null`, a nested `[...]` / `{...}`, or any Rust expression.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // Arrays: finished, with or without a trailing comma.
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    // Next element is a literal or a nested container.
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    // Next element is an expression, followed by a comma or the end.
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    // Comma after the most recent element.
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Objects: done.
    (@object $object:ident () () ()) => {};
    // Insert the current entry, then continue after its comma or stop.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    // The value after the colon: literal, container or expression.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Munch one more token into the key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! operand serializes")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
    pub struct Id(pub u32);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Pair(u8, String);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Event {
        Idle,
        Moved(Id),
        Sized(u32, u32),
        Named { id: Id, label: Option<String> },
    }

    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    struct Record {
        /// Doc comments are attributes too.
        pub id: u64,
        pub(crate) ratio: f64,
        tags: Vec<String>,
        by_id: BTreeMap<Id, Vec<(u8, bool)>>,
        #[serde(default)]
        added_later: u32,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        note: Option<String>,
        #[serde(skip)]
        cache: Vec<u8>,
        #[serde(with = "as_text")]
        code: u16,
        maybe: Option<u8>,
    }

    mod as_text {
        use serde::{Deserialize, Deserializer, Serialize, Serializer};

        pub fn serialize<S: Serializer>(v: &u16, ser: S) -> Result<S::Ok, S::Error> {
            format!("#{v}").serialize(ser)
        }

        pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<u16, D::Error> {
            let text = String::deserialize(de)?;
            text.trim_start_matches('#')
                .parse()
                .map_err(serde::de::Error::custom)
        }
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(default)]
    struct Tunables {
        threshold: u32,
        mode: String,
    }

    impl Default for Tunables {
        fn default() -> Self {
            Tunables {
                threshold: 7,
                mode: "seq".to_owned(),
            }
        }
    }

    fn record() -> Record {
        Record {
            id: 9,
            ratio: 0.304,
            tags: vec!["a".into()],
            by_id: [(Id(3), vec![(1, true)])].into(),
            added_later: 5,
            note: None,
            cache: vec![1, 2],
            code: 404,
            maybe: None,
        }
    }

    #[test]
    fn struct_text_is_serdes_json_encoding() {
        let text = to_string(&record()).unwrap();
        assert_eq!(
            text,
            r##"{"id":9,"ratio":0.304,"tags":["a"],"by_id":{"3":[[1,true]]},"added_later":5,"code":"#404","maybe":null}"##
        );
        let back: Record = from_str(&text).unwrap();
        assert_eq!(
            back,
            Record {
                cache: vec![],
                ..record()
            }
        );
    }

    #[test]
    fn absent_fields_follow_serdes_rules() {
        // `default` and `Option` fields may be absent; unknown keys are ignored.
        let r: Record =
            from_str(r##"{"id":1,"ratio":2,"tags":[],"by_id":{},"code":"#1","extra":[1]}"##)
                .unwrap();
        assert_eq!((r.added_later, r.note, r.maybe), (0, None, None));
        assert_eq!(r.ratio, 2.0);
        // Anything else absent is an error naming the field.
        let err = from_str::<Record>(r#"{"id":1}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `ratio`"), "{err}");
        let err = from_str::<Record>(r#"{"id":1,"ratio":2,"tags":[],"by_id":{}}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `code`"), "{err}");
        let err = from_str::<Record>(r#"{"id":"x"}"#).unwrap_err();
        assert!(err.to_string().contains("id:"), "{err}");
    }

    #[test]
    fn container_default_fills_absent_fields_from_default_impl() {
        let t: Tunables = from_str("{}").unwrap();
        assert_eq!(t, Tunables::default());
        let t: Tunables = from_str(r#"{"mode":"par"}"#).unwrap();
        assert_eq!((t.threshold, t.mode.as_str()), (7, "par"));
    }

    #[test]
    fn enums_are_externally_tagged() {
        let events = vec![
            Event::Idle,
            Event::Moved(Id(4)),
            Event::Sized(1, 2),
            Event::Named {
                id: Id(5),
                label: Some("x".into()),
            },
        ];
        let text = to_string(&events).unwrap();
        assert_eq!(
            text,
            r#"["Idle",{"Moved":4},{"Sized":[1,2]},{"Named":{"id":5,"label":"x"}}]"#
        );
        assert_eq!(from_str::<Vec<Event>>(&text).unwrap(), events);
        assert!(from_str::<Event>(r#""Gone""#).is_err());
        assert!(from_str::<Event>(r#"{"Sized":[1]}"#).is_err());
        assert!(from_str::<Event>(r#"{"Idle":null,"Moved":1}"#).is_err());
    }

    #[test]
    fn tuple_newtype_and_unit_structs() {
        assert_eq!(to_string(&Id(7)).unwrap(), "7");
        assert_eq!(to_string(&Pair(1, "x".into())).unwrap(), r#"[1,"x"]"#);
        assert_eq!(to_string(&Marker).unwrap(), "null");
        assert_eq!(from_str::<Pair>(r#"[1,"x"]"#).unwrap(), Pair(1, "x".into()));
        assert_eq!(from_str::<Marker>("null").unwrap(), Marker);
        assert_eq!(from_slice::<Id>(b" 12 ").unwrap(), Id(12));
        assert!(from_slice::<Id>(&[0xff]).is_err());
    }

    #[test]
    fn json_macro_builds_nested_values() {
        let name = "hits";
        let buckets = [(1.0, 2u64), (5.0, 0)];
        let v = json!({
            "kind": "histogram",
            "name": name,
            "count": buckets.len(),
            "buckets": buckets.iter().map(|(b, c)| json!([b, c])).collect::<Vec<_>>(),
            "nested": {"a": [1, null, {"b": []}], "t": true},
            "none": null,
        });
        assert_eq!(
            v.to_string(),
            r#"{"kind":"histogram","name":"hits","count":2,"buckets":[[1.0,2],[5.0,0]],"nested":{"a":[1,null,{"b":[]}],"t":true},"none":null}"#
        );
        assert_eq!(json!([1, "x"])[1], "x");
        assert_eq!(json!(null), Value::Null);
        let mut edited = to_value(&record()).unwrap();
        edited["tags"][0] = json!("b");
        assert_eq!(from_value::<Record>(edited).unwrap().tags, vec!["b"]);
    }

    #[test]
    fn pretty_text_parses_to_the_same_value() {
        let pretty = to_string_pretty(&record()).unwrap();
        assert!(pretty.contains("\n  \"id\": 9,"), "{pretty}");
        assert_eq!(
            from_str::<Value>(&pretty).unwrap(),
            to_value(&record()).unwrap()
        );
    }
}
