package coding

import (
	"encoding/binary"
	"hash/crc32"
)

// The 802.11 frame check sequence is the standard CRC-32 (IEEE 802.3
// polynomial) over the frame body, transmitted least-significant octet
// first. hash/crc32's IEEE table implements exactly this computation.

// AppendFCS returns data with its 4-octet CRC-32 FCS appended.
func AppendFCS(data []byte) []byte {
	out := make([]byte, len(data)+4)
	copy(out, data)
	PutFCS(out)
	return out
}

// PutFCS writes the CRC-32 FCS of frame[:len(frame)-4] into the frame's
// last 4 octets, forming in place the frame AppendFCS would return.
func PutFCS(frame []byte) {
	body := frame[:len(frame)-4]
	binary.LittleEndian.PutUint32(frame[len(body):], crc32.ChecksumIEEE(body))
}

// CheckFCS verifies the trailing FCS of a frame produced by AppendFCS and
// returns the body and whether the check passed. Frames shorter than 4
// octets fail.
func CheckFCS(frame []byte) (body []byte, ok bool) {
	if len(frame) < 4 {
		return nil, false
	}
	body = frame[:len(frame)-4]
	want := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	return body, crc32.ChecksumIEEE(body) == want
}
