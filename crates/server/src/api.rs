//! The request shapes both services accept, parsed once.
//!
//! A shard node (`skyline serve`) and the cluster coordinator (`skyline
//! cluster`) serve one public HTTP API, so both read it here and refuse
//! a malformed request alike: the `POST /datasets` body
//! ([`NewDataset`]), the point bodies ([`insert_rows`], [`remove_ids`])
//! and the `/skyline` query ([`dataset_param`], [`SkylineQuery`]), plus
//! the head every `/skyline` answer opens with ([`SkylineHead`]). A parse
//! error is a ready [`Response`]; each service applies its own rules to
//! what parses.

use skyline_core::subspace::{Subspace, MAX_DIMS};
use skyline_data::synthetic::{Distribution, SyntheticSpec};
use skyline_obs::json::{ObjectWriter, Value};

use crate::http::{Request, Response};
use crate::registry::validate_name;

fn bad(msg: impl AsRef<str>) -> Response {
    Response::error(400, msg.as_ref())
}

/// The request body as JSON, or a 400 saying why it is not.
pub(crate) fn parse_body(req: &Request) -> Result<Value, Response> {
    let text = req.body_str().map_err(|e| bad(e.to_string()))?;
    Value::parse(text).map_err(|e| bad(format!("bad JSON body: {e}")))
}

/// A `"rows"` value as numeric rows, or a 400 naming the first bad entry.
fn parse_rows(v: &Value) -> Result<Vec<Vec<f64>>, Response> {
    let rows = v
        .as_arr()
        .ok_or_else(|| bad("\"rows\" must be an array of arrays"))?;
    let mut parsed = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let values = row
            .as_arr()
            .ok_or_else(|| bad(format!("row {i} is not an array")))?;
        let number = |(j, v): (usize, &Value)| {
            v.as_f64()
                .ok_or_else(|| bad(format!("row {i}, value {j} is not a number")))
        };
        parsed.push(
            values
                .iter()
                .enumerate()
                .map(number)
                .collect::<Result<_, _>>()?,
        );
    }
    Ok(parsed)
}

/// A 400 unless `dims` is a supported dimensionality.
fn check_dims(dims: u64) -> Result<(), Response> {
    if !(1..=MAX_DIMS as u64).contains(&dims) {
        return Err(bad(format!(
            "dims must be between 1 and {MAX_DIMS}, got {dims}"
        )));
    }
    Ok(())
}

/// A `POST /datasets` body: `{"name", "rows": [[...], ...]}` (an empty
/// `rows` needs `"dims"`) or `{"name", "synthetic": {"distribution":
/// "AC", "n": 1000, "dims": 6, "seed": 42}}`.
#[derive(Debug)]
pub struct NewDataset {
    /// The dataset name, valid under the registry's naming rule.
    pub name: String,
    /// Dimensionality.
    pub dims: usize,
    /// The rows, generated here for a synthetic spec.
    pub rows: Vec<Vec<f64>>,
}

impl NewDataset {
    /// Parse a `POST /datasets` body. A synthetic spec of more values
    /// than a rows body of `max_body` bytes could carry is refused with
    /// 413 before anything is generated.
    pub fn parse(req: &Request, max_body: usize) -> Result<NewDataset, Response> {
        let body = parse_body(req)?;
        let Some(name) = body.get("name").and_then(Value::as_str) else {
            return Err(bad("missing string field \"name\""));
        };
        validate_name(name).map_err(|e| bad(e.to_string()))?;
        let (rows, dims) = if let Some(synth) = body.get("synthetic") {
            let data = synthetic_spec(synth, max_body)?.generate();
            (
                data.iter().map(|(_, row)| row.to_vec()).collect(),
                data.dims(),
            )
        } else if let Some(rows) = body.get("rows") {
            let rows = parse_rows(rows)?;
            let dims = match (rows.first(), body.get("dims").and_then(Value::as_u64)) {
                (Some(first), _) => first.len(),
                (None, Some(dims)) => dims as usize,
                (None, None) => return Err(bad("empty \"rows\" needs explicit \"dims\"")),
            };
            (rows, dims)
        } else {
            return Err(bad("body needs either \"rows\" or \"synthetic\""));
        };
        let name = name.to_string();
        Ok(NewDataset { name, dims, rows })
    }

    /// A 400 unless the dimensionality is supported and every row has
    /// that many values. A node's registry checks this on create; the
    /// coordinator must check it before fanning the creation out.
    pub fn check_shape(&self) -> Result<(), Response> {
        check_dims(self.dims as u64)?;
        if self.rows.iter().any(|r| r.len() != self.dims) {
            return Err(bad("every row must have the same dimensionality"));
        }
        Ok(())
    }
}

/// The `"synthetic"` spec of a `POST /datasets` body, checked so that
/// generating it neither panics nor allocates more than a rows body
/// within `max_body` would.
fn synthetic_spec(synth: &Value, max_body: usize) -> Result<SyntheticSpec, Response> {
    let field = |name| synth.get(name).and_then(Value::as_u64);
    let tag = synth
        .get("distribution")
        .and_then(Value::as_str)
        .unwrap_or("UI");
    let distribution = Distribution::from_tag(tag)
        .ok_or_else(|| bad(format!("unknown distribution {tag:?} (UI, CO, AC)")))?;
    let n = field("n").ok_or_else(|| bad("synthetic spec needs numeric \"n\""))?;
    let dims = field("dims").ok_or_else(|| bad("synthetic spec needs numeric \"dims\""))?;
    check_dims(dims)?;
    // Each value of a rows body takes at least two bytes (`0,`), so a
    // body within `max_body` carries at most `max_body / 2` values.
    let limit = (max_body / 2) as u64;
    if !n.checked_mul(dims).is_some_and(|values| values <= limit) {
        let why = format!("synthetic spec of {n} x {dims} values is over the {limit}-value limit");
        return Err(Response::error(413, &why));
    }
    Ok(SyntheticSpec {
        distribution,
        cardinality: n as usize,
        dims: dims as usize,
        seed: field("seed").unwrap_or(42),
    })
}

/// The rows of a `POST /datasets/{name}/points` body, `{"rows": [...]}`.
pub fn insert_rows(req: &Request) -> Result<Vec<Vec<f64>>, Response> {
    match parse_body(req)?.get("rows") {
        Some(rows) => parse_rows(rows),
        None => Err(bad("body needs \"rows\"")),
    }
}

/// The ids of a `DELETE /datasets/{name}/points` body, `{"ids": [...]}`;
/// an id above `max_id` is refused like a non-numeric one.
pub fn remove_ids(req: &Request, max_id: u64) -> Result<Vec<u64>, Response> {
    let body = parse_body(req)?;
    let Some(ids) = body.get("ids").and_then(Value::as_arr) else {
        return Err(bad("body needs an \"ids\" array"));
    };
    let id = |(i, v): (usize, &Value)| {
        v.as_u64()
            .filter(|&id| id <= max_id)
            .ok_or_else(|| bad(format!("ids[{i}] is not a point id")))
    };
    ids.iter().enumerate().map(id).collect()
}

/// An integer query parameter: `None` when absent or empty, a 400 when
/// it is not an integer of at least `min`.
pub(crate) fn query_u64(req: &Request, name: &str, min: u64) -> Result<Option<u64>, Response> {
    match req.query_param(name) {
        None | Some("") => Ok(None),
        Some(raw) => match raw.parse() {
            Ok(v) if v >= min => Ok(Some(v)),
            _ => Err(bad(format!(
                "bad {name:?} value {raw:?} (integer >= {min})"
            ))),
        },
    }
}

/// A `0`/`1` query parameter: `false` when absent, empty or `0`, a 400
/// for anything but `1`.
pub(crate) fn query_flag(req: &Request, name: &str) -> Result<bool, Response> {
    match req.query_param(name) {
        None | Some("" | "0") => Ok(false),
        Some("1") => Ok(true),
        Some(raw) => Err(bad(format!("bad {name:?} value {raw:?} (0 or 1)"))),
    }
}

/// The `dataset` a `/skyline` query names, or a 400. Both services check
/// it before anything else.
pub fn dataset_param(req: &Request) -> Result<&str, Response> {
    req.query_param("dataset")
        .ok_or_else(|| bad("missing query parameter \"dataset\""))
}

/// The rest of a `/skyline` query.
#[derive(Debug, Clone, Copy)]
pub struct SkylineQuery<'a> {
    /// `algo`, the engine name; `None` when absent or empty (SDI-Subset).
    pub algo: Option<&'a str>,
    /// `dims`, the raw comma-separated list; `None` when absent or empty
    /// (the full space). [`SkylineQuery::mask`] resolves it.
    pub dims: Option<&'a str>,
    /// `k`, the skyband depth: at least 1, and 1 is the skyline.
    pub k: u64,
    /// `threads` for a parallel engine; 0 leaves it to the engine name.
    pub threads: u64,
    /// `deadline_ms`, the compute deadline: at least 1 ms.
    pub deadline_ms: Option<u64>,
    /// `include_masks=1`: each point's dominating-subspace mask.
    pub include_masks: bool,
    /// `include_rows=1`: each point's coordinates.
    pub include_rows: bool,
    /// `timings=1`: the stage breakdown inlined into the answer.
    pub timings: bool,
}

impl<'a> SkylineQuery<'a> {
    /// Parse the query, checking `deadline_ms`, `threads`, `k`,
    /// `include_masks` and `include_rows` in that order.
    pub fn parse(req: &'a Request) -> Result<SkylineQuery<'a>, Response> {
        let present = |name| req.query_param(name).filter(|v| !v.is_empty());
        Ok(SkylineQuery {
            deadline_ms: query_u64(req, "deadline_ms", 1)?,
            threads: query_u64(req, "threads", 0)?.unwrap_or(0),
            k: query_u64(req, "k", 1)?.unwrap_or(1),
            include_masks: query_flag(req, "include_masks")?,
            include_rows: query_flag(req, "include_rows")?,
            timings: req.query_param("timings") == Some("1"),
            algo: present("algo"),
            dims: present("dims"),
        })
    }

    /// The queried subspace of a `total_dims`-dimensional dataset, or a
    /// 400 naming the first bad dimension.
    pub fn mask(&self, total_dims: usize) -> Result<Subspace, Response> {
        let Some(raw) = self.dims else {
            return Ok(Subspace::full(total_dims));
        };
        let mut picked = Vec::new();
        for part in raw.split(',').filter(|p| !p.is_empty()) {
            match part.trim().parse::<usize>() {
                Ok(d) if d < total_dims => picked.push(d),
                _ => {
                    return Err(bad(format!(
                        "bad dimension {part:?} (dataset has {total_dims} dims)"
                    )))
                }
            }
        }
        if picked.is_empty() {
            return Err(bad("\"dims\" must name at least one dimension"));
        }
        Ok(Subspace::from_dims(picked))
    }
}

/// The fields every `/skyline` answer opens with, on both services.
#[derive(Debug, Clone, Copy)]
pub struct SkylineHead<'a> {
    /// The queried dataset.
    pub dataset: &'a str,
    /// The engine that computed the answer.
    pub algorithm: &'a str,
    /// The dataset version the answer describes.
    pub version: u64,
    /// The queried subspace.
    pub mask_bits: u64,
    /// The skyband depth.
    pub k: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Time spent answering, microseconds.
    pub elapsed_us: u64,
    /// The answer's point ids, ascending.
    pub ids: &'a [u64],
}

impl SkylineHead<'_> {
    /// The whole answer: the head, the fields `service_fields` adds, and
    /// `"timings"` when given.
    pub fn answer(
        &self,
        service_fields: impl FnOnce(&mut ObjectWriter),
        timings: Option<&[(String, u64)]>,
    ) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("dataset", self.dataset)
            .str_field("algorithm", self.algorithm)
            .u64_field("version", self.version)
            .u64_field("mask_bits", self.mask_bits)
            .u64_field("k", self.k)
            .bool_field("cached", self.cached)
            .u64_field("count", self.ids.len() as u64)
            .u64_field("elapsed_us", self.elapsed_us)
            .u64_array_field("ids", self.ids);
        service_fields(&mut w);
        if let Some(stages) = timings {
            let mut t = ObjectWriter::new();
            for (name, us) in stages {
                t.u64_field(name, *us);
            }
            w.raw_field("timings", &t.finish());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(body: &str) -> Request {
        let raw = format!(
            "POST /datasets HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        Request::read_from(&mut raw.as_bytes(), 1 << 20)
            .expect("parse")
            .expect("one request")
    }

    fn get(target: &str) -> Request {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        Request::read_from(&mut raw.as_bytes(), 1 << 20)
            .expect("parse")
            .expect("one request")
    }

    fn status<T: std::fmt::Debug>(r: Result<T, Response>) -> u16 {
        r.expect_err("refused").status
    }

    #[test]
    fn create_bodies_parse_or_are_refused() {
        let ok = NewDataset::parse(&post(r#"{"name":"a","rows":[[1,2],[3,4]]}"#), 1024).unwrap();
        assert_eq!((ok.name.as_str(), ok.dims, ok.rows.len()), ("a", 2, 2));
        let empty = NewDataset::parse(&post(r#"{"name":"e","rows":[],"dims":3}"#), 1024).unwrap();
        assert_eq!((empty.dims, empty.rows.len()), (3, 0));
        let synth = r#"{"name":"s","synthetic":{"distribution":"AC","n":10,"dims":3}}"#;
        let synth = NewDataset::parse(&post(synth), 1024).unwrap();
        assert_eq!((synth.dims, synth.rows.len()), (3, 10));

        for (body, want) in [
            ("not json", 400),
            (r#"{"rows":[[1]]}"#, 400),
            (r#"{"name":"a b","rows":[[1]]}"#, 400),
            (r#"{"name":"a"}"#, 400),
            (r#"{"name":"a","rows":[]}"#, 400),
            (r#"{"name":"a","rows":[[1,"x"]]}"#, 400),
            (
                r#"{"name":"a","synthetic":{"distribution":"ZZ","n":1,"dims":1}}"#,
                400,
            ),
            (r#"{"name":"a","synthetic":{"dims":1}}"#, 400),
            (r#"{"name":"a","synthetic":{"n":1}}"#, 400),
            (r#"{"name":"a","synthetic":{"n":1,"dims":0}}"#, 400),
            (r#"{"name":"a","synthetic":{"n":1,"dims":65}}"#, 400),
            // 1024-byte bodies carry at most 512 values.
            (r#"{"name":"a","synthetic":{"n":257,"dims":2}}"#, 413),
            (r#"{"name":"a","synthetic":{"n":1e30,"dims":64}}"#, 413),
        ] {
            assert_eq!(status(NewDataset::parse(&post(body), 1024)), want, "{body}");
        }
        let limit = r#"{"name":"a","synthetic":{"n":256,"dims":2}}"#;
        assert!(NewDataset::parse(&post(limit), 1024).is_ok());
    }

    #[test]
    fn shape_check_refuses_ragged_rows_and_unsupported_dims() {
        let ragged = NewDataset::parse(&post(r#"{"name":"r","rows":[[1,2],[3]]}"#), 1024).unwrap();
        assert_eq!(status(ragged.check_shape()), 400);
        let wide = NewDataset::parse(&post(r#"{"name":"w","rows":[],"dims":65}"#), 1024).unwrap();
        assert_eq!(status(wide.check_shape()), 400);
        let ok = NewDataset::parse(&post(r#"{"name":"o","rows":[[1,2]]}"#), 1024).unwrap();
        assert!(ok.check_shape().is_ok());
    }

    #[test]
    fn point_bodies_parse_or_are_refused() {
        assert_eq!(
            insert_rows(&post(r#"{"rows":[[1,2]]}"#)).unwrap(),
            [[1.0, 2.0]]
        );
        assert_eq!(status(insert_rows(&post(r#"{"ids":[1]}"#))), 400);
        assert_eq!(status(insert_rows(&post(r#"{"rows":5}"#))), 400);
        assert_eq!(remove_ids(&post(r#"{"ids":[3,1]}"#), 10).unwrap(), [3, 1]);
        assert_eq!(status(remove_ids(&post(r#"{"ids":[11]}"#), 10)), 400);
        assert_eq!(status(remove_ids(&post(r#"{"ids":["x"]}"#), 10)), 400);
        assert_eq!(status(remove_ids(&post(r#"{"rows":[]}"#), 10)), 400);
    }

    #[test]
    fn skyline_queries_parse_with_defaults() {
        let defaults = get("/skyline?dataset=d&algo=&dims=");
        let q = SkylineQuery::parse(&defaults).unwrap();
        assert_eq!((q.algo, q.dims, q.k, q.threads), (None, None, 1, 0));
        assert_eq!(q.deadline_ms, None);
        assert!(!q.include_masks && !q.include_rows && !q.timings);
        assert_eq!(q.mask(3).unwrap(), Subspace::full(3));

        let req =
            get("/skyline?algo=SFS&dims=0,2&k=2&threads=3&deadline_ms=5&include_rows=1&timings=1");
        let q = SkylineQuery::parse(&req).unwrap();
        assert_eq!(
            (q.algo, q.k, q.threads, q.deadline_ms),
            (Some("SFS"), 2, 3, Some(5))
        );
        assert!(q.include_rows && !q.include_masks && q.timings);
        assert_eq!(q.mask(3).unwrap(), Subspace::from_dims([0, 2]));
        assert_eq!(status(q.mask(2)), 400);

        for bad in [
            "deadline_ms=0",
            "deadline_ms=soon",
            "threads=-1",
            "k=0",
            "include_masks=yes",
            "include_rows=2",
        ] {
            assert_eq!(
                status(SkylineQuery::parse(&get(&format!("/skyline?{bad}")))),
                400,
                "{bad}"
            );
        }
        let commas = get("/skyline?dims=,");
        assert_eq!(status(SkylineQuery::parse(&commas).unwrap().mask(3)), 400);
        assert_eq!(status(dataset_param(&get("/skyline"))), 400);
    }

    #[test]
    fn answers_keep_the_head_in_wire_order() {
        let head = SkylineHead {
            dataset: "d",
            algorithm: "SFS",
            version: 7,
            mask_bits: 3,
            k: 1,
            cached: true,
            elapsed_us: 9,
            ids: &[1, 4],
        };
        let stages = [("parse".to_string(), 2)];
        let body = head.answer(
            |w| {
                w.u64_field("shards", 2);
            },
            Some(&stages),
        );
        assert_eq!(
            body,
            r#"{"dataset":"d","algorithm":"SFS","version":7,"mask_bits":3,"k":1,"cached":true,"count":2,"elapsed_us":9,"ids":[1,4],"shards":2,"timings":{"parse":2}}"#
        );
    }
}
