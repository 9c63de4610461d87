package skeleton

import (
	"bytes"
	"testing"
)

// FuzzSkeletonRead: Read never panics and returns a nil program with every
// error, and a program it accepts is a fixed point of the JSON form: Write's
// output decodes again, and writing that gives the same bytes. The seed
// in testdata/fuzz is `skel`'s output for IS class S on 2 ranks.
func FuzzSkeletonRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := Read(bytes.NewReader(data))
		if err != nil {
			if prog != nil {
				t.Fatalf("Read returned a program with error %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := prog.Write(&first); err != nil {
			t.Fatalf("Write of a decoded program: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects Write's output: %v\n%s", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatalf("second Write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
