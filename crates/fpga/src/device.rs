//! The device: a CLB grid with perimeter IOBs and channel routing.

use std::error::Error;
use std::fmt;

use crate::bel::{BelLoc, ClbSlot, IobSide, IobSite};
use crate::coords::{Coord, Rect};

/// Errors produced when constructing or sizing a device.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// Grid dimensions or channel width of zero.
    EmptyDevice,
    /// The requested netlist does not fit any supported device.
    TooLarge {
        /// CLBs required.
        clbs: usize,
        /// I/O pads required.
        ios: usize,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDevice => write!(f, "device dimensions must be nonzero"),
            Self::TooLarge { clbs, ios } => {
                write!(
                    f,
                    "design needs {clbs} CLBs / {ios} pads, exceeding the largest device"
                )
            }
        }
    }
}

impl Error for DeviceError {}

/// Largest supported grid edge (keeps RRG indices in `u32`).
pub const MAX_EDGE: u16 = 256;

/// An XC4000-style device.
///
/// ```
/// use fpga::Device;
/// let dev = Device::new(10, 10, 8, 2)?;
/// assert_eq!(dev.num_clbs(), 100);
/// assert_eq!(dev.io_capacity(), 80);
/// # Ok::<(), fpga::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    width: u16,
    height: u16,
    tracks: u16,
    iobs_per_pos: u8,
}

impl Device {
    /// Creates a device with the given CLB grid and channel width.
    ///
    /// `tracks` is the number of wires per routing channel and
    /// `iobs_per_pos` the number of pads sharing each perimeter
    /// position (XC4000 devices have two).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyDevice`] for zero dimensions and
    /// [`DeviceError::TooLarge`] for edges above [`MAX_EDGE`].
    pub fn new(
        width: u16,
        height: u16,
        tracks: u16,
        iobs_per_pos: u8,
    ) -> Result<Self, DeviceError> {
        if width == 0 || height == 0 || tracks == 0 || iobs_per_pos == 0 {
            return Err(DeviceError::EmptyDevice);
        }
        if width > MAX_EDGE || height > MAX_EDGE {
            return Err(DeviceError::TooLarge {
                clbs: width as usize * height as usize,
                ios: 0,
            });
        }
        Ok(Self {
            width,
            height,
            tracks,
            iobs_per_pos,
        })
    }

    /// Sizes a near-square device for a design.
    ///
    /// The grid is the smallest `w × h` rectangle (aspect ratio within
    /// 3:2) whose CLB capacity is at least `luts.max(ffs)/2 ×
    /// (1 + overhead)` and whose perimeter carries `ios` pads. This
    /// implements paper step 5: "re-place-and-route with resource
    /// slack" — the device deliberately leaves `overhead` spare logic
    /// capacity for future test-logic insertion. Allowing mild
    /// rectangles keeps the realized overhead close to the requested
    /// one (a square-only grid can overshoot 20% to ~40%).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::TooLarge`] if no supported device fits.
    pub fn for_design(
        luts: usize,
        ffs: usize,
        ios: usize,
        overhead: f64,
        tracks: u16,
    ) -> Result<Self, DeviceError> {
        let clbs_needed = luts.max(ffs).div_ceil(2).max(1);
        let with_slack = ((clbs_needed as f64) * (1.0 + overhead.max(0.0))).ceil() as usize;
        let iobs_per_pos = 2u8;
        let side = (with_slack as f64).sqrt();
        let mut best: Option<(usize, u16, u16)> = None; // (area, w, h)
        let lo = (side * 0.8).floor().max(1.0) as u16;
        let hi = ((side * 1.3).ceil() as u16).min(MAX_EDGE).max(lo + 1);
        for h in lo..=hi {
            let w = (with_slack.div_ceil(h as usize)).max(2) as u16;
            if w > MAX_EDGE {
                continue;
            }
            let aspect = f64::from(w.max(h)) / f64::from(w.min(h));
            if aspect > 1.5 {
                continue;
            }
            let io_cap = 2 * (w as usize + h as usize) * iobs_per_pos as usize;
            if io_cap < ios {
                continue;
            }
            let area = w as usize * h as usize;
            let better = match best {
                None => true,
                Some((ba, bw, bh)) => {
                    area < ba || (area == ba && (w.max(h) - w.min(h)) < (bw.max(bh) - bw.min(bh)))
                }
            };
            if better {
                best = Some((area, w, h));
            }
        }
        if let Some((_, w, h)) = best {
            return Self::new(w.max(2), h.max(2), tracks, iobs_per_pos);
        }
        // Fallback: grow a square until the pad budget fits.
        let mut edge = side.ceil().max(2.0) as u16;
        loop {
            if edge > MAX_EDGE {
                return Err(DeviceError::TooLarge {
                    clbs: with_slack,
                    ios,
                });
            }
            let io_cap = 4 * edge as usize * iobs_per_pos as usize;
            if (edge as usize * edge as usize) >= with_slack && io_cap >= ios {
                return Self::new(edge, edge, tracks, iobs_per_pos);
            }
            edge += 1;
        }
    }

    /// Grid width in CLB columns.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in CLB rows.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Wires per routing channel.
    pub fn tracks(&self) -> u16 {
        self.tracks
    }

    /// Pads per perimeter position.
    pub fn iobs_per_pos(&self) -> u8 {
        self.iobs_per_pos
    }

    /// Total number of CLBs.
    pub fn num_clbs(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total IOB sites.
    pub fn io_capacity(&self) -> usize {
        2 * (self.width as usize + self.height as usize) * self.iobs_per_pos as usize
    }

    /// The full-grid rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width - 1, self.height - 1)
    }

    /// True if `c` is a valid CLB coordinate.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Iterates over all CLB coordinates, row-major.
    pub fn clb_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// Iterates over the four BEL slots of one CLB.
    pub fn clb_slots(&self, c: Coord) -> impl Iterator<Item = BelLoc> {
        ClbSlot::ALL
            .into_iter()
            .map(move |slot| BelLoc::Clb { coord: c, slot })
    }

    /// Iterates over all CLB BELs on the device.
    pub fn all_clb_bels(&self) -> impl Iterator<Item = BelLoc> + '_ {
        self.clb_coords().flat_map(|c| self.clb_slots(c))
    }

    /// Iterates over all IOB sites: sides in N/S/E/W order, then
    /// position along the side, then pad.
    pub fn iob_sites(&self) -> impl Iterator<Item = IobSite> + '_ {
        let w = self.width;
        let h = self.height;
        let k = self.iobs_per_pos;
        IobSide::ALL.into_iter().flat_map(move |side| {
            let len = match side {
                IobSide::North | IobSide::South => w,
                IobSide::East | IobSide::West => h,
            };
            (0..len).flat_map(move |pos| (0..k).map(move |kk| IobSite { side, pos, k: kk }))
        })
    }

    /// The `i`-th element of [`Device::iob_sites`], without walking
    /// the perimeter; `None` from [`Device::io_capacity`] on.
    ///
    /// ```
    /// use fpga::Device;
    /// let dev = Device::new(5, 4, 8, 2)?;
    /// let sites: Vec<_> = dev.iob_sites().collect();
    /// assert_eq!(dev.iob_site(13), Some(sites[13]));
    /// assert_eq!(dev.iob_site(dev.io_capacity()), None);
    /// # Ok::<(), fpga::DeviceError>(())
    /// ```
    pub fn iob_site(&self, i: usize) -> Option<IobSite> {
        let per_pos = usize::from(self.iobs_per_pos);
        let (mut pos, k) = (i / per_pos, i % per_pos);
        for side in IobSide::ALL {
            let len = usize::from(self.side_len(side));
            if pos < len {
                return Some(IobSite {
                    side,
                    pos: pos as u16,
                    k: k as u8,
                });
            }
            pos -= len;
        }
        None
    }

    /// Number of positions along the given side.
    pub fn side_len(&self, side: IobSide) -> u16 {
        match side {
            IobSide::North | IobSide::South => self.width,
            IobSide::East | IobSide::West => self.height,
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xc4k-{}x{} ({} CLBs, {} tracks/channel)",
            self.width,
            self.height,
            self.num_clbs(),
            self.tracks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        let d = Device::new(8, 6, 8, 2).unwrap();
        assert_eq!(d.num_clbs(), 48);
        assert_eq!(d.io_capacity(), 56);
        assert_eq!(d.bounds(), Rect::new(0, 0, 7, 5));
    }

    #[test]
    fn zero_dimension_rejected() {
        assert_eq!(Device::new(0, 5, 8, 2), Err(DeviceError::EmptyDevice));
        assert_eq!(Device::new(5, 5, 0, 2), Err(DeviceError::EmptyDevice));
    }

    #[test]
    fn sizing_leaves_slack() {
        // 100 LUTs -> 50 CLBs -> with 20% slack -> 60 CLBs minimum.
        let d = Device::for_design(100, 20, 30, 0.20, 8).unwrap();
        assert!(d.num_clbs() >= 60);
        // The rectangle search keeps the realized overhead tight.
        assert!(d.num_clbs() <= 66, "{} CLBs is too loose", d.num_clbs());
        let aspect = f64::from(d.width().max(d.height())) / f64::from(d.width().min(d.height()));
        assert!(aspect <= 1.5);
        assert!(d.io_capacity() >= 30);
    }

    #[test]
    fn sizing_grows_for_io() {
        // Tiny logic but many pads forces a bigger grid.
        let d = Device::for_design(2, 0, 200, 0.20, 8).unwrap();
        assert!(d.io_capacity() >= 200);
        assert!(d.width() >= 25);
    }

    #[test]
    fn iob_enumeration_matches_capacity() {
        let d = Device::new(5, 4, 8, 2).unwrap();
        let sites: Vec<IobSite> = d.iob_sites().collect();
        assert_eq!(sites.len(), d.io_capacity());
    }

    #[test]
    fn bel_enumeration() {
        let d = Device::new(3, 3, 8, 2).unwrap();
        assert_eq!(d.all_clb_bels().count(), 36);
        assert_eq!(d.clb_coords().count(), 9);
    }

    #[test]
    fn display_mentions_size() {
        let d = Device::new(4, 4, 6, 2).unwrap();
        assert!(d.to_string().contains("4x4"));
    }
}
