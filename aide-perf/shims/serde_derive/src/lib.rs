//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`, no `quote`: neither resolves without a registry).
//!
//! It reads just enough of an item to know its shape — struct or enum, the
//! field and variant names, and the four `#[serde(...)]` attributes the
//! workspace uses — and emits impls that build or take apart the serde
//! stand-in's `Value` tree. Field types are never parsed: the generated code
//! lets inference supply them from the constructor it fills in.
//!
//! Anything outside that subset (generic parameters, other serde attributes)
//! is a compile error naming the construct, so a new use cannot silently
//! serialize differently from the real crate.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::fmt::Write as _;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, emit_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, emit_deserialize)
}

fn expand(input: TokenStream, emit: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => emit(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive stand-in generated unparsable code")
}

/// `#[serde(...)]` options of a field or a container.
#[derive(Default)]
struct Attrs {
    default: bool,
    skip: bool,
    skip_serializing_if: Option<String>,
    with: Option<String>,
}

struct Field {
    /// Name of a named field; position of a tuple field.
    name: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

/// Reads leading `#[...]` attributes off `tokens[*pos..]`, folding the
/// `serde` ones into an [`Attrs`].
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*pos), tokens.get(*pos + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        *pos += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let is_serde =
            matches!(inner.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde");
        if let (true, Some(TokenTree::Group(args))) = (is_serde, inner.get(1)) {
            parse_serde_args(args, &mut attrs)?;
        }
    }
    Ok(attrs)
}

fn parse_serde_args(args: &Group, attrs: &mut Attrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = args.stream().into_iter().collect();
    for arg in split_top_level(&tokens) {
        let key = match arg.first() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            _ => return Err(format!("unsupported serde attribute `{}`", args.stream())),
        };
        // `key = "literal"`: the literal's text without its quotes.
        let text = match (arg.get(1), arg.get(2)) {
            (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
                Some(lit.to_string().trim_matches('"').to_owned())
            }
            _ => None,
        };
        match (key.as_str(), text, arg.len()) {
            ("default", None, 1) => attrs.default = true,
            ("skip", None, 1) => attrs.skip = true,
            ("skip_serializing_if", Some(path), 3) => attrs.skip_serializing_if = Some(path),
            ("with", Some(path), 3) => attrs.with = Some(path),
            _ => {
                return Err(format!(
                    "the offline serde stand-in does not support `#[serde({})]`",
                    args.stream()
                ))
            }
        }
    }
    Ok(())
}

/// Splits on commas that sit outside every `<...>` pair. Brackets, braces
/// and parentheses arrive as single `Group` tokens, so only angle brackets
/// need counting; the `>` of `->` is not a closer.
fn split_top_level(tokens: &[TokenTree]) -> Vec<&[TokenTree]> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    let mut after_dash = false;
    for (i, token) in tokens.iter().enumerate() {
        let c = match token {
            TokenTree::Punct(p) => p.as_char(),
            _ => ' ',
        };
        match c {
            '<' => depth += 1,
            '>' if !after_dash => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&tokens[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        after_dash = c == '-';
    }
    if start < tokens.len() {
        parts.push(&tokens[start..]);
    }
    parts
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

fn named_fields(group: &Group) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    for part in split_top_level(&tokens) {
        let mut pos = 0;
        let attrs = take_attrs(part, &mut pos)?;
        skip_visibility(part, &mut pos);
        match part.get(pos) {
            Some(TokenTree::Ident(name)) => fields.push(Field {
                name: name.to_string(),
                attrs,
            }),
            _ => return Err("expected a field name".to_owned()),
        }
    }
    Ok(fields)
}

fn tuple_fields(group: &Group) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    split_top_level(&tokens)
        .into_iter()
        .enumerate()
        .map(|(i, part)| {
            let mut pos = 0;
            Ok(Field {
                name: i.to_string(),
                attrs: take_attrs(part, &mut pos)?,
            })
        })
        .collect()
}

fn shape_of(token: Option<&TokenTree>) -> Result<Shape, String> {
    match token {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            named_fields(g).map(Shape::Named)
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            tuple_fields(g).map(Shape::Tuple)
        }
        _ => Ok(Shape::Unit),
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let attrs = take_attrs(&tokens, &mut pos)?;
    skip_visibility(&tokens, &mut pos);
    let keyword = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".to_owned()),
    };
    let name = match tokens.get(pos + 1) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected a type name".to_owned()),
    };
    let after_name = tokens.get(pos + 2);
    if matches!(after_name, Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "the offline serde stand-in cannot derive for generic type `{name}`"
        ));
    }
    let body = match keyword.as_str() {
        "struct" => Body::Struct(shape_of(after_name)?),
        "enum" => {
            let group = match after_name {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
                _ => return Err(format!("expected the variants of enum `{name}`")),
            };
            let inner: Vec<TokenTree> = group.stream().into_iter().collect();
            let mut variants = Vec::new();
            for part in split_top_level(&inner) {
                let mut vpos = 0;
                let vattrs = take_attrs(part, &mut vpos)?;
                if vattrs.default || vattrs.skip || vattrs.with.is_some() {
                    return Err(format!(
                        "the offline serde stand-in supports no serde attributes on variants of `{name}`"
                    ));
                }
                let vname = match part.get(vpos) {
                    Some(TokenTree::Ident(i)) => i.to_string(),
                    _ => return Err(format!("expected a variant name in enum `{name}`")),
                };
                variants.push(Variant {
                    name: vname,
                    shape: shape_of(part.get(vpos + 1))?,
                });
            }
            Body::Enum(variants)
        }
        other => return Err(format!("cannot derive serde traits for a `{other}`")),
    };
    Ok(Item { name, attrs, body })
}

const P: &str = "::serde::__private";

/// Expression serializing `access` (a place of the field's type).
fn ser_field(field: &Field, access: &str) -> String {
    match &field.attrs.with {
        Some(module) => format!("{module}::serialize({access}, {P}::ValueSerializer)"),
        None => format!("{P}::to_value({access})"),
    }
}

/// Statements pushing named `fields` into the map `__map`; `access` maps a
/// field name to a reference expression.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = format!(
        "let mut __map = ::serde::Map::with_capacity({});\n",
        fields.len()
    );
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let place = access(&f.name);
        let push = format!(
            "__map.push_unique({:?}.to_owned(), {}.map_err(__custom)?);",
            f.name,
            ser_field(f, &place)
        );
        match &f.attrs.skip_serializing_if {
            Some(pred) => {
                let _ = writeln!(out, "if !{pred}({place}) {{ {push} }}");
            }
            None => {
                let _ = writeln!(out, "{push}");
            }
        }
    }
    out
}

/// Expression for the payload of tuple-shaped `fields` bound to the given
/// reference expressions: the lone field itself, or an array.
fn ser_tuple(fields: &[Field], places: &[String]) -> String {
    if let ([field], [place]) = (fields, places) {
        return format!("{}.map_err(__custom)?", ser_field(field, place));
    }
    let items: Vec<String> = fields
        .iter()
        .zip(places)
        .map(|(f, place)| format!("{}.map_err(__custom)?", ser_field(f, place)))
        .collect();
    format!("::serde::Value::Array(vec![{}])", items.join(", "))
}

fn emit_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "let __value = ::serde::Value::Null;".to_owned(),
        Body::Struct(Shape::Tuple(fields)) => {
            let places: Vec<String> = fields.iter().map(|f| format!("&self.{}", f.name)).collect();
            format!("let __value = {};", ser_tuple(fields, &places))
        }
        Body::Struct(Shape::Named(fields)) => format!(
            "{}let __value = ::serde::Value::Object(__map);",
            ser_named(fields, |f| format!("&self.{f}"))
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        let _ = writeln!(
                            arms,
                            "{name}::{vname} => ::serde::Value::String({vname:?}.to_owned()),"
                        );
                    }
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("__f{i}")).collect();
                        let _ = writeln!(
                            arms,
                            "{name}::{vname}({}) => {P}::tagged({vname:?}, {}),",
                            binds.join(", "),
                            ser_tuple(fields, &binds)
                        );
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let _ = writeln!(
                            arms,
                            "{name}::{vname} {{ {} }} => {{ {} {P}::tagged({vname:?}, ::serde::Value::Object(__map)) }}",
                            binds.join(", "),
                            ser_named(fields, |f| f.to_owned())
                        );
                    }
                }
            }
            format!("let __value = match self {{\n{arms}}};")
        }
    };
    format!(
        "#[automatically_derived]
        impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S)
                -> ::core::result::Result<__S::Ok, __S::Error>
            {{
                #[allow(unused)]
                let __custom = <__S::Error as ::serde::ser::Error>::custom::<{P}::Error>;
                {body}
                __serializer.serialize_value(__value)
            }}
        }}"
    )
}

/// Expression deserializing a field's value `v` (a `Value` expression).
fn de_value(field: &Field, v: &str) -> String {
    match &field.attrs.with {
        Some(module) => format!("{module}::deserialize({P}::ValueDeserializer({v}))?"),
        None => format!("{P}::from_value({v})?"),
    }
}

/// Field initialisers `name: expr,` reading from the map `__map`.
/// `container_default` means the struct carries `#[serde(default)]`, so an
/// absent field comes from `__default`.
fn de_named(fields: &[Field], container_default: bool) -> String {
    let mut out = String::new();
    for f in fields {
        let name = &f.name;
        let fallback = if container_default {
            format!("__default.{name}")
        } else {
            "::core::default::Default::default()".to_owned()
        };
        let init = if f.attrs.skip {
            fallback
        } else if f.attrs.default || container_default || f.attrs.with.is_some() {
            let absent = if f.attrs.default || container_default {
                fallback
            } else {
                format!("return ::core::result::Result::Err(<{P}::Error as ::serde::de::Error>::missing_field({name:?}))")
            };
            format!(
                "match {P}::take_field(&mut __map, {name:?}) {{
                    ::core::option::Option::Some(__v) => {},
                    ::core::option::Option::None => {absent},
                }}",
                de_value(f, "__v")
            )
        } else {
            format!("{P}::field(&mut __map, {name:?})?")
        };
        let _ = writeln!(out, "{name}: {init},");
    }
    out
}

/// Constructor call `path(...)` for tuple-shaped `fields` from the payload
/// `__payload`.
fn de_tuple(path: &str, fields: &[Field], what: &str) -> String {
    if let [field] = fields {
        return format!("{path}({})", de_value(field, "__payload"));
    }
    let items: Vec<String> = fields
        .iter()
        .map(|f| de_value(f, "__items.next().expect(\"length checked\")"))
        .collect();
    format!(
        "{{ let mut __items = {P}::expect_array(__payload, {}, {what:?})?.into_iter(); {path}({}) }}",
        fields.len(),
        items.join(", ")
    )
}

fn emit_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => format!("let _ = __value; {name}"),
        Body::Struct(Shape::Tuple(fields)) => format!(
            "let __payload = __value; {}",
            de_tuple(name, fields, &format!("tuple struct {name}"))
        ),
        Body::Struct(Shape::Named(fields)) => {
            let default = if item.attrs.default {
                format!("let __default: {name} = ::core::default::Default::default();")
            } else {
                String::new()
            };
            format!(
                "{default}
                #[allow(unused_mut)]
                let mut __map = {P}::expect_object(__value, {:?})?;
                {name} {{ {} }}",
                format!("struct {name}"),
                de_named(fields, item.attrs.default)
            )
        }
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let path = format!("{name}::{vname}");
                let build = match &v.shape {
                    Shape::Unit => path,
                    Shape::Tuple(fields) => {
                        de_tuple(&path, fields, &format!("tuple variant {name}::{vname}"))
                    }
                    Shape::Named(fields) => format!(
                        "{{
                            #[allow(unused_mut)]
                            let mut __map = {P}::expect_object(__payload, {:?})?;
                            {path} {{ {} }}
                        }}",
                        format!("struct variant {name}::{vname}"),
                        de_named(fields, false)
                    ),
                };
                let _ = writeln!(arms, "{vname:?} => {build},");
            }
            format!(
                "let (__variant, __payload) = {P}::enum_parts(__value, {name:?})?;
                #[allow(unused)]
                let __payload = __payload;
                match __variant.as_str() {{
                    {arms}
                    __other => return ::core::result::Result::Err({P}::unknown_variant(__other, {name:?})),
                }}"
            )
        }
    };
    format!(
        "#[automatically_derived]
        impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D)
                -> ::core::result::Result<Self, __D::Error>
            {{
                let __value = __deserializer.into_value()?;
                let __read = move || -> ::core::result::Result<Self, {P}::Error> {{
                    ::core::result::Result::Ok({{ {body} }})
                }};
                __read().map_err(<__D::Error as ::serde::de::Error>::custom)
            }}
        }}"
    )
}
