package rpc

import "reflect"

// Pooled reports whether values of v's type keep gob codec state between
// messages (codec.go), rather than building an encoder or decoder for each.
func Pooled(v any) bool { return codecFor(reflect.TypeOf(v)) != nil }
