//! XML serialization: [`Element`] tree → text.

use crate::dom::{Element, XmlNode};

/// Appends `text` to `out` with the five predefined entities escaped.
pub fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

/// Serializes an element into `out` (compact form, no added whitespace —
/// whitespace is significant in the evaluation's message-size comparisons).
fn write_into(el: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&el.name);
    for (k, v) in &el.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_into(v, out);
        out.push('"');
    }
    if el.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in &el.children {
        match c {
            XmlNode::Text(t) => escape_into(t, out),
            XmlNode::Element(e) => write_into(e, out),
        }
    }
    out.push_str("</");
    out.push_str(&el.name);
    out.push('>');
}

/// Serializes an element to a fresh string.
pub fn to_string(el: &Element) -> String {
    let mut out = String::with_capacity(128);
    write_into(el, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_xml() {
        let e = Element::new("a")
            .attr("k", "v")
            .child(Element::new("b").text("x"))
            .child(Element::new("c"));
        assert_eq!(to_string(&e), r#"<a k="v"><b>x</b><c/></a>"#);
    }

    #[test]
    fn escapes_text_and_attributes() {
        let e = Element::new("a").attr("q", "a\"b<c").text("1 < 2 & 3 > 'x'");
        let s = to_string(&e);
        assert_eq!(s, r#"<a q="a&quot;b&lt;c">1 &lt; 2 &amp; 3 &gt; &apos;x&apos;</a>"#);
    }

    #[test]
    fn write_into_reuses_buffer() {
        let e = Element::new("x");
        let mut buf = String::from("prefix:");
        write_into(&e, &mut buf);
        assert_eq!(buf, "prefix:<x/>");
    }
}
