package proxy

import (
	"fmt"
	"slices"
	"strings"
)

// parseYAML parses the YAML subset the proxy config uses — nested mappings by
// indentation, lists of mappings ("- key: value"), quoted or bare scalars,
// and # comments. Everything parses to yamlMap / []any / string; the settings
// table in config.go applies types. Anchors, flow syntax, multi-line scalars,
// and tabs are rejected, keeping the grammar small enough to trust without a
// dependency.
func parseYAML(data []byte) (yamlMap, error) {
	var lines []yamlLine
	for no, raw := range strings.Split(string(data), "\n") {
		if strings.ContainsRune(raw, '\t') {
			return nil, fmt.Errorf("line %d: tabs are not allowed for indentation", no+1)
		}
		text := stripComment(raw)
		trimmed := strings.TrimSpace(text)
		if trimmed == "" {
			continue
		}
		lines = append(lines, yamlLine{
			indent: len(text) - len(strings.TrimLeft(text, " ")),
			text:   trimmed,
			no:     no + 1,
		})
	}
	if len(lines) == 0 {
		return nil, nil
	}
	if lines[0].indent != 0 {
		return nil, fmt.Errorf("line %d: top level must not be indented", lines[0].no)
	}
	m, rest, err := parseMapping(lines, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("line %d: unexpected indentation", rest[0].no)
	}
	return m, nil
}

// yamlMap is a mapping in file order, so that the loader meets keys — and
// reports the first bad one — the way the file reads.
type yamlMap []yamlEntry

type yamlEntry struct {
	key string
	val any // string, yamlMap or []any
}

type yamlLine struct {
	indent int
	text   string
	no     int
}

// stripComment removes a trailing # comment. As in YAML, a comment or a
// quoted scalar starts only at the beginning of the line or after a space, so
// "/health#x" is a value and "it's" opens no quote; a # inside quotes is text.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c, atStart := s[i], i == 0 || s[i-1] == ' '
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case (c == '\'' || c == '"') && atStart:
			quote = c
		case c == '#' && atStart:
			return s[:i]
		}
	}
	return s
}

// unquote strips the quotes of a quoted scalar. A quote that opens a scalar
// must close it, at its end: anything else is an error, not part of the value.
func unquote(s string, no int) (string, error) {
	if s == "" || (s[0] != '"' && s[0] != '\'') {
		return s, nil
	}
	if len(s) < 2 || strings.IndexByte(s[1:], s[0])+1 != len(s)-1 {
		return "", fmt.Errorf("line %d: unterminated quote in %s", no, s)
	}
	return s[1 : len(s)-1], nil
}

// parseMapping consumes "key: value" / "key:" lines at exactly indent,
// returning the mapping and the unconsumed tail (first line at a shallower
// indent).
func parseMapping(ls []yamlLine, indent int) (yamlMap, []yamlLine, error) {
	var m yamlMap
	for len(ls) > 0 {
		l := ls[0]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, nil, fmt.Errorf("line %d: unexpected indentation", l.no)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, nil, fmt.Errorf("line %d: list item where a key was expected", l.no)
		}
		key, rest, ok := splitKey(l.text)
		if !ok {
			return nil, nil, fmt.Errorf("line %d: want \"key: value\", got %q", l.no, l.text)
		}
		if slices.ContainsFunc(m, func(e yamlEntry) bool { return e.key == key }) {
			return nil, nil, fmt.Errorf("line %d: duplicate key %q", l.no, key)
		}
		ls = ls[1:]
		if rest != "" {
			v, err := unquote(rest, l.no)
			if err != nil {
				return nil, nil, err
			}
			m = append(m, yamlEntry{key, v})
			continue
		}
		// Block value: a nested mapping or list at deeper indent, or empty.
		if len(ls) == 0 || ls[0].indent <= indent {
			m = append(m, yamlEntry{key, ""})
			continue
		}
		var (
			v   any
			err error
		)
		if strings.HasPrefix(ls[0].text, "- ") || ls[0].text == "-" {
			v, ls, err = parseList(ls, ls[0].indent)
		} else {
			v, ls, err = parseMapping(ls, ls[0].indent)
		}
		if err != nil {
			return nil, nil, err
		}
		m = append(m, yamlEntry{key, v})
	}
	return m, ls, nil
}

// parseList consumes "- ..." items at exactly indent. Each item is either a
// bare scalar or a mapping whose first entry shares the dash line and whose
// remaining entries sit at the dash line's content column.
func parseList(ls []yamlLine, indent int) ([]any, []yamlLine, error) {
	var out []any
	for len(ls) > 0 {
		l := ls[0]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, nil, fmt.Errorf("line %d: unexpected indentation", l.no)
		}
		if !strings.HasPrefix(l.text, "- ") {
			if l.text == "-" {
				return nil, nil, fmt.Errorf("line %d: empty list item", l.no)
			}
			break
		}
		body := strings.TrimSpace(l.text[2:])
		if _, _, isMap := splitKey(body); !isMap {
			v, err := unquote(body, l.no)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, v)
			ls = ls[1:]
			continue
		}
		// Mapping item: re-inject the dash line's remainder at the item's
		// content column, then absorb continuation lines at that column.
		itemIndent := indent + 2
		item := []yamlLine{{indent: itemIndent, text: body, no: l.no}}
		ls = ls[1:]
		for len(ls) > 0 && ls[0].indent == itemIndent &&
			!strings.HasPrefix(ls[0].text, "- ") && ls[0].text != "-" {
			item = append(item, ls[0])
			ls = ls[1:]
		}
		m, rest, err := parseMapping(item, itemIndent)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) > 0 {
			return nil, nil, fmt.Errorf("line %d: unexpected indentation", rest[0].no)
		}
		out = append(out, m)
	}
	return out, ls, nil
}

// splitKey splits "key: value" (value may be empty). ok=false when the line
// has no colon-separated key.
func splitKey(s string) (key, value string, ok bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return "", "", false
	}
	if i+1 < len(s) && s[i+1] != ' ' {
		// "host:port" without a space is a scalar, not a key. A trailing
		// colon ("key:") is a key with an empty value.
		return "", "", false
	}
	return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
}
