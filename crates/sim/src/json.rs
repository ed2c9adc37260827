//! The one JSON writer of the workspace's result records: a report, a
//! trace event, a span, a window row and a sink line are each an object
//! written field by field through [`Obj`] into one `String`. The writer
//! owns the format: quoted keys, comma separators, `None` as `null`,
//! integers through `Display`, and strings and `f64`s through `Debug`
//! (escaped; shortest round-trip), so equal records are equal bytes.
//! A stream record states its field list once, as [`Fields`]: its own
//! object and a stream line that leads it with its run's identity are
//! both written from that list.

use std::fmt::Write;

/// A value the writer can render.
pub trait Json {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! formatted {
    ($fmt:literal: $($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                write!(out, $fmt, self).expect("writing to a String cannot fail");
            }
        }
    )*};
}

formatted!("{}": u8, u16, u32, u64, u128, usize);
formatted!("{:?}": f64, str, String);

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A pair is a two-item array.
impl<A: Json, B: Json> Json for (A, B) {
    fn write_json(&self, out: &mut String) {
        write_array(out, [&self.0 as &dyn Json, &self.1]);
    }
}

fn write_array<T: Json>(out: &mut String, items: impl IntoIterator<Item = T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// A stream record (flit-trace event, transaction span, window row).
pub trait Fields {
    /// Appends this record's fields to `o`, in schema order.
    fn write_fields(&self, o: &mut Obj);
}

/// An object being written: [`object`] opens and closes it, and each
/// call appends its fields.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    /// The separator, then `"key":`.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Json) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Appends `"key":{…}`, the fields `fields` appends.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut Obj)) -> &mut Self {
        object(self.key(key), fields);
        self
    }

    /// Appends `"key":[…]`, one item per element of `items`.
    pub fn array<T: Json>(&mut self, key: &str, items: impl IntoIterator<Item = T>) -> &mut Self {
        write_array(self.key(key), items);
        self
    }
}

/// Appends a field list: `json_fields!(o; count: n, sum: s)` is
/// `o.field("count", n).field("sum", s)`, and `json_fields!(o, self;
/// count, sum)` writes `self`'s fields of those names under their names.
#[macro_export]
macro_rules! json_fields {
    ($o:expr; $($key:ident: $value:expr),+ $(,)?) => {
        { $o$(.field(stringify!($key), $value))+; }
    };
    ($o:expr, $from:expr; $($field:ident),+ $(,)?) => {
        $crate::json_fields!($o; $($field: &$from.$field),+)
    };
}

/// Writes one object into `out`: `{`, the fields `fields` appends, `}`.
pub fn object(out: &mut String, fields: impl FnOnce(&mut Obj)) {
    out.push('{');
    fields(&mut Obj { out, empty: true });
    out.push('}');
}

/// One object in a new `String`.
pub fn record(fields: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    object(&mut out, fields);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass over every rule: escaped strings, `Debug` floats, `null`,
    /// an empty array, a nested object, a pair and a field list.
    #[test]
    fn writes_each_rule_once() {
        let doc = record(|o| {
            o.field("s", r#"q"b\"#)
                .field("whole", 1.0)
                .field("half", 0.5)
                .field("none", None::<u64>)
                .field("some", Some(3u8))
                .array("empty", std::iter::empty::<u64>())
                .object("nested", |n| {
                    n.field("k", 7u64).array("pairs", [(0u32, 1u64), (4, 2)]);
                });
        });
        assert_eq!(
            doc,
            r#"{"s":"q\"b\\","whole":1.0,"half":0.5,"none":null,"some":3,"empty":[],"nested":{"k":7,"pairs":[[0,1],[4,2]]}}"#
        );
        assert_eq!(record(|_| {}), "{}");
        struct Pair {
            a: u64,
            b: Option<f64>,
        }
        let p = Pair { a: 1, b: None };
        assert_eq!(record(|o| json_fields!(o, p; a, b)), r#"{"a":1,"b":null}"#);
        assert_eq!(
            record(|o| json_fields!(o; n: 2u8, s: "x")),
            r#"{"n":2,"s":"x"}"#
        );
        impl Fields for Pair {
            fn write_fields(&self, o: &mut Obj) {
                json_fields!(o, self; a, b);
            }
        }
        let led = record(|o| {
            o.field("run", 0u8);
            p.write_fields(o);
        });
        assert_eq!(led, r#"{"run":0,"a":1,"b":null}"#);
    }
}
