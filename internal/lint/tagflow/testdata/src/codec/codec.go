// Package codec is a fixture stub of the real marshaling package: the
// tagflow analyzer matches codec.Pack/AppendPack/Unpack/UnpackInto by
// package name, so these signatures are all it needs.
package codec

func Pack(v interface{}) ([]byte, error)                   { return nil, nil }
func AppendPack(dst []byte, v interface{}) ([]byte, error) { return nil, nil }
func Unpack(b []byte) (interface{}, error)                 { return nil, nil }
func UnpackInto(b []byte, dst interface{}) error           { return nil }
