//! A small XML document object model (the parse-tree of the paper's
//! XML/XSLT evaluation path).

use std::fmt;

/// An XML node: element or text.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlNode {
    /// An element with a name, attributes, and children.
    Element(Element),
    /// A text node (entity references already decoded).
    Text(String),
}

impl XmlNode {
    /// The element, if this node is one.
    fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        }
    }

    /// The XPath-style string value: concatenation of all descendant text.
    pub fn string_value(&self) -> String {
        match self {
            XmlNode::Text(t) => t.clone(),
            XmlNode::Element(e) => e.string_value(),
        }
    }
}

/// An XML element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Creates an empty element.
    pub fn new(name: impl Into<String>) -> Element {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, e: Element) -> Element {
        self.children.push(XmlNode::Element(e));
        self
    }

    /// Adds a text child (builder style).
    pub fn text(mut self, t: impl Into<String>) -> Element {
        self.children.push(XmlNode::Text(t.into()));
        self
    }

    /// Looks up an attribute value.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// Child elements with the given tag name.
    pub fn elements_named<'e>(&'e self, name: &'e str) -> impl Iterator<Item = &'e Element> {
        self.elements().filter(move |e| e.name == name)
    }

    /// First child element with the given tag name.
    pub fn first_named(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// XPath string value: all descendant text concatenated.
    pub fn string_value(&self) -> String {
        let mut s = String::new();
        self.collect_text(&mut s);
        s
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c {
                XmlNode::Text(t) => out.push_str(t),
                XmlNode::Element(e) => e.collect_text(out),
            }
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::write::to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("order")
            .attr("id", "42")
            .child(Element::new("item").text("widget"))
            .child(Element::new("item").text("gadget"))
            .child(Element::new("qty").text("3"))
    }

    #[test]
    fn builders_and_accessors() {
        let e = sample();
        assert_eq!(e.attribute("id"), Some("42"));
        assert!(e.attribute("missing").is_none());
        assert_eq!(e.elements().count(), 3);
        assert_eq!(e.elements_named("item").count(), 2);
        assert_eq!(e.first_named("qty").unwrap().string_value(), "3");
    }

    #[test]
    fn string_value_concatenates_descendants() {
        let e = Element::new("a").text("x").child(Element::new("b").text("y")).text("z");
        assert_eq!(e.string_value(), "xyz");
        assert_eq!(XmlNode::Element(e).string_value(), "xyz");
        assert_eq!(XmlNode::Text("t".into()).string_value(), "t");
    }

    #[test]
    fn node_accessors() {
        let t = XmlNode::Text("hi".into());
        assert!(t.as_element().is_none());
        let e = XmlNode::Element(Element::new("x"));
        assert!(e.as_element().is_some());
    }
}
