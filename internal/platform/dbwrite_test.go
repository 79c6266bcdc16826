package platform

import (
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
)

// netCheckOrigin is the net-based origin check checkOrigin replaced;
// the differential test holds the two to the same verdicts.
func netCheckOrigin(origin string) error {
	host := origin
	if h, _, err := net.SplitHostPort(origin); err == nil {
		host = h
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return fmt.Errorf("platform: unparseable origin %q", origin)
	}
	if ip.IsLoopback() || ip.IsPrivate() {
		return nil
	}
	return ErrForbiddenOrigin
}

// verdict classifies an origin check result: admitted, forbidden or
// unparseable.
func verdict(err error) string {
	switch {
	case err == nil:
		return "admitted"
	case errors.Is(err, ErrForbiddenOrigin):
		return "forbidden"
	default:
		return "unparseable"
	}
}

func TestCheckOriginMatchesNet(t *testing.T) {
	for _, origin := range []string{
		// IPv4, bare and with a port.
		"127.0.0.1", "127.8.9.10", "10.0.0.1", "172.16.5.4", "172.32.0.1",
		"192.168.1.1", "8.8.8.8", "0.0.0.0", "255.255.255.255",
		"127.0.0.1:8080", "10.1.2.3:1", "8.8.8.8:53", "192.168.0.1:65535",
		// IPv6, bare and with a port.
		"::1", "::", "fd00::1", "fc00::abcd", "fe80::1", "2001:db8::1", "2606:4700::1111",
		"[::1]:80", "[fd12::3]:443", "[2001:db8::1]:8080", "[::]:0",
		// A bare IPv6 address ending in what looks like a port.
		"::1:80", "fd00::1:443",
		// 4-in-6, including loopback and private.
		"::ffff:127.0.0.1", "::ffff:10.0.0.1", "::ffff:8.8.8.8",
		"[::ffff:127.0.0.1]:80", "[::ffff:192.168.1.1]:9",
		// Zones are not origins.
		"fe80::1%eth0", "::1%lo", "[fe80::1%eth0]:80", "[::1%lo]:80",
		// Garbage and the empty string.
		"", ":", ":80", "[]:80", "[::1]", "localhost", "localhost:80",
		"127.0.0.1.1", "01.2.3.4", "1.2.3", "::1::", "[::1]:80:80", "127.0.0.1 ",
		" 127.0.0.1", "not an address", "\x00",
	} {
		got, want := verdict(checkOrigin(origin)), verdict(netCheckOrigin(origin))
		if got != want {
			t.Errorf("checkOrigin(%q) = %s, net check = %s", origin, got, want)
		}
	}
}

// TestCheckOriginStricterThanNet documents where the netip check is
// stricter than the net one: net.SplitHostPort validates neither the
// port nor whether a bracketed host is IPv6, so the old check admitted
// an in-network host with any port text or a bracketed IPv4 address.
// checkOrigin treats such an origin as unparseable.
func TestCheckOriginStricterThanNet(t *testing.T) {
	for _, origin := range []string{"127.0.0.1:", "10.0.0.1:http", "192.168.1.1:70000", "[::1]:", "[::1]:-1", "[127.0.0.1]:80"} {
		if verdict(netCheckOrigin(origin)) != "admitted" {
			t.Errorf("net check no longer admits %q; move it to TestCheckOriginMatchesNet", origin)
		}
		if got := verdict(checkOrigin(origin)); got != "unparseable" {
			t.Errorf("checkOrigin(%q) = %s, want unparseable", origin, got)
		}
	}
}

func TestCheckOriginAllocatesNothing(t *testing.T) {
	for _, origin := range []string{"127.0.0.1", "10.0.0.1:8080", "::1", "[::1]:80", "::ffff:127.0.0.1", "[fd00::1]:443"} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := checkOrigin(origin); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("checkOrigin(%q) allocates %.1f per call, want 0", origin, allocs)
		}
	}
}

// TestFormatChargeMatchesSprintf holds the battery record format to
// fmt's "%.1f" on the special values, rounding ties and the 0-100 %
// range in 0.05 steps.
func TestFormatChargeMatchesSprintf(t *testing.T) {
	corpus := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		0.05, 0.15, 0.25, 0.35, 0.45, 1.25, 2.5, 99.95, 100.05, -0.05, -0.15, -12.25,
		1e-9, -1e-9, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for i := 0; i <= 2000; i++ {
		corpus = append(corpus, float64(i)*0.05)
	}
	for _, v := range corpus {
		if got, want := formatCharge(v), fmt.Sprintf("%.1f", v); got != want {
			t.Errorf("formatCharge(%v) = %q, Sprintf = %q", v, got, want)
		}
	}
}
