// Package jsonenc appends JSON scalars byte-identical to encoding/json's
// output. The hot response encoders (eval.Outcome.AppendJSON and the web
// /eval envelopes) write their fixed struct shapes field by field with
// these helpers instead of paying for reflection, and their tests hold
// them to json.Marshal byte for byte.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f the way encoding/json encodes a float64: the
// shortest round-trip form, in 'f' notation unless |f| is below 1e-6 or at
// least 1e21, where it switches to 'e' with a one-digit negative exponent
// written without its leading zero (1e-7, not 1e-07). f must be finite —
// json.Marshal rejects NaN and ±Inf, so callers check before encoding.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string under encoding/json's
// default (HTML-safe) rules: '"' and '\\' are backslash-escaped, control
// bytes use the short escapes \b \f \n \r \t or \u00XX, '<', '>' and '&'
// become \u003c \u003e \u0026, U+2028 and U+2029 become \u2028 and
// \u2029, and each invalid UTF-8 byte becomes \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
