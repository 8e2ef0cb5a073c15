package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
)

// Exchange is one HTTP client exchange over an unreliable wire — the one
// way the fleet's edges (shard dispatch, poll and cancel, agent register
// and heartbeat, the blob backend) talk to each other. Do classifies
// every way it can fail, so a caller under Retry needs no rules of its
// own:
//
//	outcome                              verdict
//	fault injected at Point              transient (InjectedError)
//	transport error, torn/short body     ClassifyNetErr: timeouts, resets,
//	                                     refusals and EOFs transient, the
//	                                     caller's dead context permanent
//	5xx, 429                             transient (peer restarting or shedding)
//	status listed in Firm                no error: the status is the answer
//	any other non-2xx                    permanent
//	undecodable JSON, body over MaxBody  permanent
type Exchange struct {
	// Point names the fault point fired before anything is sent; ""
	// fires none.
	Point       string
	Method, URL string
	// JSON, when non-nil, is marshalled as the request body; otherwise
	// Body (if non-nil) is sent as application/octet-stream.
	JSON any
	Body []byte
	// Firm lists non-2xx statuses that are answers rather than failures
	// (a 404 for an absent blob): Do returns them with a nil error.
	Firm []int
	// Into, when non-nil, receives the JSON-decoded 2xx response body.
	Into any
	// Raw, when non-nil, receives the 2xx response body, which must not
	// exceed MaxBody bytes.
	Raw     *[]byte
	MaxBody int64
}

// drainLimit bounds how much of an unread response body is consumed so
// the connection can be reused; a peer sending more forfeits the
// connection instead of pinning the caller.
const drainLimit = 1 << 20

// Do performs the exchange and returns the response status (0 when no
// response arrived).
func (x Exchange) Do(ctx context.Context, client *http.Client) (status int, err error) {
	if x.Point != "" {
		if err := Fire(x.Point); err != nil {
			return 0, err
		}
	}
	var body io.Reader
	contentType := ""
	switch {
	case x.JSON != nil:
		data, err := json.Marshal(x.JSON)
		if err != nil {
			return 0, err
		}
		body, contentType = bytes.NewReader(data), "application/json"
	case x.Body != nil:
		body, contentType = bytes.NewReader(x.Body), "application/octet-stream"
	}
	req, err := http.NewRequestWithContext(ctx, x.Method, x.URL, body)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, ClassifyNetErr(err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		resp.Body.Close()
	}()
	status = resp.StatusCode
	if status < 200 || status > 299 {
		if slices.Contains(x.Firm, status) {
			return status, nil
		}
		err := fmt.Errorf("%s %s returned %s", x.Method, x.URL, resp.Status)
		if status >= 500 || status == http.StatusTooManyRequests {
			err = MarkTransient(err)
		}
		return status, err
	}
	switch {
	case x.Into != nil:
		if err := json.NewDecoder(resp.Body).Decode(x.Into); err != nil {
			return status, ClassifyNetErr(fmt.Errorf("%s %s: decoding response: %w", x.Method, x.URL, err))
		}
	case x.Raw != nil:
		data, err := io.ReadAll(io.LimitReader(resp.Body, x.MaxBody+1))
		if err != nil {
			return status, ClassifyNetErr(fmt.Errorf("%s %s: reading response: %w", x.Method, x.URL, err))
		}
		if int64(len(data)) > x.MaxBody {
			return status, fmt.Errorf("%s %s: response exceeds %d bytes", x.Method, x.URL, x.MaxBody)
		}
		*x.Raw = data
	}
	return status, nil
}
